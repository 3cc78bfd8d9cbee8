(* Tests for the effects-based fiber layer (lib/par/fiber), kept while
   the per-layer benchmark still times it: spawn/await semantics,
   nested-await helping without deadlock, deterministic exception
   propagation, and qcheck scheduler-interleaving properties (random
   spawn/await DAGs bitwise identical at pools 1/2/4, Incumbent winners
   included). *)

module Pool = Par.Pool
module Fiber = Par.Fiber
module Incumbent = Cellsched.Incumbent

let pool_sizes = [ 1; 2; 4 ]

exception Boom of int

(* ====================================================================== *)
(* Spawn / await semantics                                                *)
(* ====================================================================== *)

let test_spawn_await () =
  Pool.with_pool ~size:2 (fun p ->
      (* external entry: run a root fiber from a non-pool domain *)
      let v = Fiber.run p (fun () -> 6 * 7) in
      Alcotest.(check int) "run returns the body's value" 42 v;
      (* inside a fiber, spawn needs no ~pool: Pool.self finds it *)
      let v =
        Fiber.run p (fun () ->
            let a = Fiber.spawn (fun () -> 40) in
            let b = Fiber.spawn (fun () -> 2) in
            Fiber.await a + Fiber.await b)
      in
      Alcotest.(check int) "default-pool children" 42 v);
  match Fiber.spawn (fun () -> ()) with
  | _ -> Alcotest.fail "spawn outside any pool must raise"
  | exception Invalid_argument _ -> ()

let test_await_resolved () =
  Pool.with_pool ~size:1 (fun p ->
      let f = Fiber.spawn ~pool:p (fun () -> 17) in
      Alcotest.(check int) "first await" 17 (Fiber.await f);
      (* a resolved fiber can be awaited again, from anywhere *)
      Alcotest.(check int) "second await (fast path)" 17 (Fiber.await f);
      Alcotest.(check int) "await inside a fiber"
        34
        (Fiber.run p (fun () -> Fiber.await f + Fiber.await f)))

(* Binary spawn tree: every interior fiber suspends on two children.
   1024 leaves exercise suspension depth and cross-domain resumption at
   every pool size. *)
let test_nested_tree () =
  let rec tree d = if d = 0 then 1 else
      let l = Fiber.spawn (fun () -> tree (d - 1)) in
      let r = tree (d - 1) in
      Fiber.await l + r
  in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "pool %d: 2^10 leaves" size)
            1024
            (Fiber.run p (fun () -> tree 10))))
    pool_sizes

(* A 300-deep await chain on a single domain: each level spawns a child
   and suspends on it. Coarse thunk nesting at this depth would stack
   300 helping frames; fibers park each level and run the child on a
   fresh task, so one worker drains the whole chain. *)
let test_deep_chain_one_domain () =
  Pool.with_pool ~size:1 (fun p ->
      let rec go d =
        if d = 0 then 0
        else 1 + Fiber.await (Fiber.spawn (fun () -> go (d - 1)))
      in
      Alcotest.(check int) "chain of 300 awaits" 300
        (Fiber.run p (fun () -> go 300)))

(* The two non-fiber await paths: a plain pool task helps (runs tasks
   while blocked); the main domain spin-waits. *)
let test_await_outside_fiber () =
  Pool.with_pool ~size:2 (fun p ->
      let f = Fiber.spawn ~pool:p (fun () -> 5) in
      Alcotest.(check int) "main-domain await" 5 (Fiber.await f);
      let task =
        Pool.submit p (fun () ->
            Fiber.await (Fiber.spawn (fun () -> 7)) + 1)
      in
      Alcotest.(check int) "pool-task await helps" 8 (Pool.await p task))

(* ====================================================================== *)
(* Exception propagation                                                  *)
(* ====================================================================== *)

let test_exception_chain () =
  Pool.with_pool ~size:2 (fun p ->
      (* leaf raises; every awaiting ancestor re-raises; the root run
         surfaces the original exception *)
      match
        Fiber.run p (fun () ->
            Fiber.await
              (Fiber.spawn (fun () ->
                   Fiber.await (Fiber.spawn (fun () -> raise (Boom 3))) + 1))
            + 1)
      with
      | _ -> Alcotest.fail "must re-raise through the chain"
      | exception Boom i -> Alcotest.(check int) "leaf exception at root" 3 i)

(* ====================================================================== *)
(* qcheck: random spawn/await DAGs, bitwise across pool sizes             *)
(* ====================================================================== *)

(* One seeded DAG: node i awaits a seeded subset of nodes j < i (mixing
   their values into its own), may spawn-and-await a nested child, and
   may raise Boom i. Every decision
   is drawn before any fiber starts, so the value flow is a pure
   function of the seed — what the scheduler interleaves must not
   matter. Each non-raising node also offers a candidate to a shared
   Incumbent; its strict total order makes the winner a function of the
   candidate set alone. *)
type dag = {
  n : int;
  preds : int list array;  (* strictly smaller indices *)
  nested : bool array;
  raises : bool array;
}

let make_dag ~seed ~n ~fail =
  let rng = Support.Rng.create seed in
  {
    n;
    preds =
      Array.init n (fun i ->
          List.filter
            (fun _ -> Support.Rng.int rng 100 < 40)
            (List.init i Fun.id));
    nested = Array.init n (fun _ -> Support.Rng.int rng 100 < 30);
    raises =
      Array.init n (fun i ->
          fail && i > 0 && Support.Rng.int rng 100 < 15);
  }

let mix acc v = (acc lxor v) * 0x01000193 land 0x3FFFFFFF

(* Runs the DAG on a pool of [size]; returns per-node outcomes (value
   or exception text) and the Incumbent winner. *)
let run_dag dag ~size =
  Pool.with_pool ~size (fun p ->
      let inc = Incumbent.create () in
      let outcomes =
        Fiber.run p (fun () ->
            let fibers : int Fiber.t option array = Array.make dag.n None in
            for i = 0 to dag.n - 1 do
              fibers.(i) <-
                Some
                  (Fiber.spawn (fun () ->
                       let acc = ref (mix 0 (i + 1)) in
                       List.iter
                         (fun j ->
                           acc := mix !acc (Fiber.await (Option.get fibers.(j))))
                         dag.preds.(i);
                       if dag.nested.(i) then begin
                         let c = Fiber.spawn (fun () -> mix !acc 0x5bd1e995) in
                         acc := mix !acc (Fiber.await c)
                       end;
                       if dag.raises.(i) then raise (Boom i);
                       let v = !acc in
                       ignore
                         (Incumbent.offer inc
                            ~period:(1e-3 +. (float_of_int (v land 0xFF) *. 1e-5))
                            [| i; v land 7 |]);
                       v))
            done;
            Array.init dag.n (fun i ->
                match Fiber.await (Option.get fibers.(i)) with
                | v -> Ok v
                | exception e -> Error (Printexc.to_string e)))
      in
      let winner =
        match Incumbent.best inc with
        | None -> None
        | Some e ->
            Some
              ( Int64.bits_of_float e.Incumbent.period,
                e.Incumbent.fp,
                Array.to_list e.Incumbent.arr )
      in
      (outcomes, winner))

let dag_deterministic =
  QCheck.Test.make ~count:120
    ~name:"random spawn/await DAGs bitwise at pools 1/2/4"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 24))
    (fun (seed, n) ->
      let dag = make_dag ~seed ~n ~fail:false in
      let r1 = run_dag dag ~size:1 in
      List.iter
        (fun size ->
          if run_dag dag ~size <> r1 then
            QCheck.Test.fail_reportf
              "pool=%d: results or incumbent differ (seed %d, n %d)" size seed
              n)
        [ 2; 4 ];
      true)

let dag_exceptions_deterministic =
  QCheck.Test.make ~count:60
    ~name:"leaf exceptions re-raise deterministically at any pool size"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 16))
    (fun (seed, n) ->
      let dag = make_dag ~seed ~n ~fail:true in
      let r1 = run_dag dag ~size:1 in
      (* a raising node fails its awaiting ancestors in await order, so
         the full Ok/Error vector — not just the root — must agree *)
      List.iter
        (fun size ->
          if run_dag dag ~size <> r1 then
            QCheck.Test.fail_reportf
              "pool=%d: failure propagation differs (seed %d, n %d)" size seed
              n)
        [ 2; 4 ];
      true)

(* ====================================================================== *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fiber"
    [
      ( "fiber",
        [
          Alcotest.test_case "spawn/await + default pool" `Quick test_spawn_await;
          Alcotest.test_case "await resolved (fast path)" `Quick
            test_await_resolved;
          Alcotest.test_case "nested spawn tree, pools 1/2/4" `Quick
            test_nested_tree;
          Alcotest.test_case "300-deep await chain on one domain" `Quick
            test_deep_chain_one_domain;
          Alcotest.test_case "await outside fibers helps/blocks" `Quick
            test_await_outside_fiber;
          Alcotest.test_case "exception re-raises through await chain" `Quick
            test_exception_chain;
        ] );
      ( "determinism",
        [ qt dag_deterministic; qt dag_exceptions_deterministic ] );
    ]
