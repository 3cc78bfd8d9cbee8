(* Fixed domain pool over per-worker SPMC deques; see pool.mli for the
   wakeup and determinism contracts. *)

type task = unit -> unit

type t = {
  deques : task Spmc_queue.t array;
  injector : task Queue.t; (* protected by [m] *)
  m : Mutex.t;
  cond : Condition.t;
  sleepers : int Atomic.t;
  stop : bool Atomic.t;
  mutable domains : unit Domain.t array;
  n : int;
  created_at : float;
  (* per-worker stats: each cell written by one worker, read anywhere *)
  executed : int Atomic.t array;
  stolen : int Atomic.t array;
  steal_failures : int Atomic.t array;
  shielded : int Atomic.t array;
  busy : float Atomic.t array;
  (* previous [publish_stats] snapshot, so counter deltas stay monotonic *)
  mutable published : (int * int * int * int) array;
}

type ctx = { cpool : t; id : int }

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let default_size () =
  match Sys.getenv_opt "CELLSTREAM_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> k
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let size t = t.n

(* ------------------------------------------------------------------ *)
(* Task acquisition                                                    *)

let pop_injector t =
  Mutex.lock t.m;
  let r = Queue.take_opt t.injector in
  Mutex.unlock t.m;
  r

let try_steal t id =
  let dq = t.deques.(id) in
  let got = ref None in
  let k = ref 1 in
  while Option.is_none !got && !k < t.n do
    let victim = (id + !k) mod t.n in
    let moved = Spmc_queue.steal t.deques.(victim) ~into:dq in
    if moved > 0 then begin
      Atomic.set t.stolen.(id) (Atomic.get t.stolen.(id) + moved);
      got := Spmc_queue.pop dq
    end
    else Atomic.incr t.steal_failures.(id);
    incr k
  done;
  !got

let find_task t id =
  match Spmc_queue.pop t.deques.(id) with
  | Some _ as r -> r
  | None -> (
      match pop_injector t with
      | Some _ as r -> r
      | None -> if t.n > 1 then try_steal t id else None)

let run_one t id (task : task) =
  Atomic.incr t.executed.(id);
  let t0 = Unix.gettimeofday () in
  (* Task closures capture their own exceptions into their promise; an
     exception escaping here means a raw closure leaked one, so count it
     rather than lose it silently — [stats] exposes the tally and tests
     assert it stays zero. *)
  (try task ()
   with e ->
     Atomic.incr t.shielded.(id);
     if Sys.getenv_opt "CELLSTREAM_DEBUG" <> None then
       Printf.eprintf "par: worker %d shielded %s\n%!" id
         (Printexc.to_string e));
  Atomic.set t.busy.(id) (Atomic.get t.busy.(id) +. (Unix.gettimeofday () -. t0))

(* ------------------------------------------------------------------ *)
(* Parking protocol                                                    *)

let work_visible t =
  (not (Queue.is_empty t.injector))
  || Array.exists (fun dq -> Spmc_queue.size dq > 0) t.deques

let park t =
  Mutex.lock t.m;
  Atomic.incr t.sleepers;
  (* Re-check under the lock: a producer that saw sleepers = 0 made its
     work visible before that read (SC atomics), so this check finds it;
     a producer that saw sleepers > 0 broadcasts under [m], which either
     precedes this check or interrupts the wait. Either way no lost
     wakeup. *)
  while (not (Atomic.get t.stop)) && not (work_visible t) do
    Condition.wait t.cond t.m
  done;
  Atomic.decr t.sleepers;
  Mutex.unlock t.m

let wake t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.m;
    Condition.broadcast t.cond;
    Mutex.unlock t.m
  end

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

let worker_loop t id =
  Domain.DLS.set ctx_key (Some { cpool = t; id });
  let rec loop () =
    match find_task t id with
    | Some task ->
        run_one t id task;
        loop ()
    | None -> if Atomic.get t.stop then () else (park t; loop ())
  in
  loop ()

let create ?size:(n = default_size ()) ?(deque_pow = 10) () =
  if n < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      deques = Array.init n (fun _ -> Spmc_queue.create ~size_pow:deque_pow ());
      injector = Queue.create ();
      m = Mutex.create ();
      cond = Condition.create ();
      sleepers = Atomic.make 0;
      stop = Atomic.make false;
      domains = [||];
      n;
      created_at = Unix.gettimeofday ();
      executed = Array.init n (fun _ -> Atomic.make 0);
      stolen = Array.init n (fun _ -> Atomic.make 0);
      steal_failures = Array.init n (fun _ -> Atomic.make 0);
      shielded = Array.init n (fun _ -> Atomic.make 0);
      busy = Array.init n (fun _ -> Atomic.make 0.);
      published = Array.make n (0, 0, 0, 0);
    }
  in
  t.domains <- Array.init n (fun id -> Domain.spawn (fun () -> worker_loop t id));
  t

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Mutex.lock t.m;
    Atomic.set t.stop true;
    Condition.broadcast t.cond;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Submission and waiting                                              *)

let inject t task =
  Mutex.lock t.m;
  Queue.push task t.injector;
  Mutex.unlock t.m

let submit_task t task =
  (match Domain.DLS.get ctx_key with
  | Some c when c.cpool == t ->
      if not (Spmc_queue.push t.deques.(c.id) task) then inject t task
  | _ -> inject t task);
  wake t

let run_async = submit_task

let self () =
  match Domain.DLS.get ctx_key with
  | Some c -> Some c.cpool
  | None -> None

(* Wait for [pred]: a worker of this pool helps (runs tasks) so nested
   blocking cannot deadlock; an outside domain spins briefly then
   sleeps in 50 µs slices, which keeps single-core hosts from burning
   whole scheduler quanta polling. *)
let wait_until t pred =
  let helper =
    match Domain.DLS.get ctx_key with
    | Some c when c.cpool == t -> Some c.id
    | _ -> None
  in
  let idle = ref 0 in
  while not (pred ()) do
    match helper with
    | Some id -> (
        match find_task t id with
        | Some task ->
            run_one t id task;
            idle := 0
        | None ->
            incr idle;
            if !idle > 100 then Unix.sleepf 5e-5 else Domain.cpu_relax ())
    | None ->
        incr idle;
        if !idle > 100 then Unix.sleepf 5e-5 else Domain.cpu_relax ()
  done

let help_until = wait_until

type 'a promise = ('a, exn * Printexc.raw_backtrace) result option Atomic.t

let submit t f =
  let p = Atomic.make None in
  submit_task t (fun () ->
      let r =
        try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Atomic.set p (Some r));
  p

let await t p =
  wait_until t (fun () -> Atomic.get p <> None);
  match Atomic.get p with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

(* Await every slot, then fail on the lowest-index error: the reported
   exception does not depend on completion order. *)
let join_all t remaining (results : (_, exn * Printexc.raw_backtrace) result option array) =
  wait_until t (fun () -> Atomic.get remaining = 0);
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) -> ()
      | None -> assert false)
    results

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if n = 1 then [| f xs.(0) |]
  else begin
    let results = Array.make n None in
    let remaining = Atomic.make n in
    for i = 0 to n - 1 do
      submit_task t (fun () ->
          let r =
            try Ok (f xs.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          (* The decrement publishes the plain write above: the joiner
             observes [remaining = 0] through an atomic read, which
             orders it after every slot write. *)
          Atomic.decr remaining)
    done;
    join_all t remaining results;
    Array.map
      (function Some (Ok v) -> v | _ -> assert false (* join_all raised *))
      results
  end

(* Dynamic fan-out: run [f] on every item; the items it returns are
   resubmitted as fresh tasks until the frontier drains. A child's
   pending-count increment happens before its parent's decrement, so the
   count can only reach zero when every transitively spawned item has
   finished. *)
let parallel_grow t f roots =
  let n_roots = Array.length roots in
  if n_roots > 0 then begin
    let pending = Atomic.make n_roots in
    let failure = Atomic.make None in
    let rec launch item =
      submit_task t (fun () ->
          (match f item with
          | children ->
              let k = Array.length children in
              if k > 0 then begin
                ignore (Atomic.fetch_and_add pending k);
                Array.iter launch children
              end
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          Atomic.decr pending)
    in
    Array.iter launch roots;
    wait_until t (fun () -> Atomic.get pending = 0);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

type worker_stats = {
  executed : int;
  stolen : int;
  steal_failures : int;
  shielded : int;
  busy_s : float;
}

let stats t =
  Array.init t.n (fun i ->
      {
        executed = Atomic.get t.executed.(i);
        stolen = Atomic.get t.stolen.(i);
        steal_failures = Atomic.get t.steal_failures.(i);
        shielded = Atomic.get t.shielded.(i);
        busy_s = Atomic.get t.busy.(i);
      })

let publish_stats t =
  if Obs.Metrics.enabled () then begin
    let tasks = Obs.Metrics.counter_family "par_tasks_total" ~labels:[ "worker" ]
    and steals = Obs.Metrics.counter_family "par_steals_total" ~labels:[ "worker" ]
    and fails =
      Obs.Metrics.counter_family "par_steal_failures_total" ~labels:[ "worker" ]
    and shields =
      Obs.Metrics.counter_family "par_shielded_exceptions_total"
        ~labels:[ "worker" ]
    and busy =
      Obs.Metrics.gauge_family "par_worker_busy_fraction" ~labels:[ "worker" ]
    and pool_size = Obs.Metrics.gauge "par_pool_size" in
    Obs.Metrics.Gauge.set pool_size (float_of_int t.n);
    let wall = Unix.gettimeofday () -. t.created_at in
    let st = stats t in
    Array.iteri
      (fun i s ->
        let w = [ string_of_int i ] in
        let pe, ps, pf, px = t.published.(i) in
        Obs.Metrics.Counter.add (tasks w) (max 0 (s.executed - pe));
        Obs.Metrics.Counter.add (steals w) (max 0 (s.stolen - ps));
        Obs.Metrics.Counter.add (fails w) (max 0 (s.steal_failures - pf));
        Obs.Metrics.Counter.add (shields w) (max 0 (s.shielded - px));
        t.published.(i) <- (s.executed, s.stolen, s.steal_failures, s.shielded);
        Obs.Metrics.Gauge.set (busy w)
          (if wall > 0. then s.busy_s /. wall else 0.))
      st
  end
