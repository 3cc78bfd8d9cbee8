module Fnv = Support.Fnv

type strategy =
  | Portfolio of { seed : int; restarts : int }
  | Bb of { rel_gap : float; max_nodes : int }

type t = {
  label : string;
  platform : Cell.Platform.t;
  graph : Streaming.Graph.t;
  strategy : strategy;
  deadline_ms : float option;
  prio : int;
  fingerprint : string;
  order : int array;
}

let default_strategy =
  Portfolio
    {
      seed = Cellsched.Portfolio.default_seed;
      restarts = Cellsched.Portfolio.default_restarts;
    }

let strategy_to_string = function
  | Portfolio { seed; restarts } ->
      Printf.sprintf "portfolio:seed=%d,restarts=%d" seed restarts
  | Bb { rel_gap; max_nodes } ->
      Printf.sprintf "bb:gap=%.17g,max-nodes=%d" rel_gap max_nodes

let platform_hash (p : Cell.Platform.t) =
  let open Fnv in
  let h = empty in
  let h = add_int h p.Cell.Platform.n_ppe in
  let h = add_int h p.Cell.Platform.n_spe in
  let h = add_float h p.Cell.Platform.bw in
  let h = add_float h p.Cell.Platform.eib_bw in
  let h = add_int h p.Cell.Platform.local_store in
  let h = add_int h p.Cell.Platform.code_size in
  let h = add_int h p.Cell.Platform.max_dma_in in
  let h = add_int h p.Cell.Platform.max_dma_to_ppe in
  let h = add_float h p.Cell.Platform.ppe_speedup in
  let h = add_int h p.Cell.Platform.n_cells in
  add_float h p.Cell.Platform.inter_cell_bw

let strategy_hash = function
  | Portfolio { seed; restarts } ->
      Fnv.(add_int (add_int (add_int empty 1) seed) restarts)
  | Bb { rel_gap; max_nodes } ->
      Fnv.(add_int (add_float (add_int empty 2) rel_gap) max_nodes)

let make ~label ~platform ~graph ~strategy ~deadline_ms ~prio =
  let order, gfp = Streaming.Canonical.key graph in
  let meta =
    let open Fnv in
    let h = add_value empty gfp in
    let h = add_value h (platform_hash platform) in
    add_value h (strategy_hash strategy)
  in
  let fingerprint = Fnv.to_hex gfp ^ Fnv.to_hex meta in
  { label; platform; graph; strategy; deadline_ms; prio; fingerprint; order }

let fingerprint r = r.fingerprint

(* --- request-file lines -------------------------------------------------- *)

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_line ~load_graph ?(default_spes = 8)
    ?(default_strategy = default_strategy) lineno line =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match split_words line with
  | [] -> None
  | file :: attrs ->
      let spes = ref default_spes in
      let strategy = ref None in
      let seed = ref None
      and restarts = ref None
      and gap = ref None
      and max_nodes = ref None in
      let deadline = ref None and prio = ref 0 in
      let int_of key v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> fail "invalid int for %s: %S" key v
      in
      let float_of key v =
        match float_of_string_opt v with
        | Some f -> f
        | None -> fail "invalid float for %s: %S" key v
      in
      let set word =
        match String.index_opt word '=' with
        | None -> fail "expected key=value, got %S" word
        | Some i -> (
            let key = String.sub word 0 i
            and v = String.sub word (i + 1) (String.length word - i - 1) in
            match key with
            | "spes" -> spes := int_of key v
            | "strategy" -> (
                match v with
                | "portfolio" | "bb" -> strategy := Some v
                | _ -> fail "unknown strategy %S (portfolio, bb)" v)
            | "seed" -> seed := Some (int_of key v)
            | "restarts" -> restarts := Some (int_of key v)
            | "gap" -> gap := Some (float_of key v)
            | "max-nodes" -> max_nodes := Some (int_of key v)
            | "deadline" ->
                let ms = float_of key v in
                if not (Float.is_finite ms && ms > 0.) then
                  fail "deadline=%s must be a positive number of ms" v;
                deadline := Some ms
            | "prio" -> prio := int_of key v
            | _ -> fail "unknown request attribute %S" key)
      in
      List.iter set attrs;
      let strategy =
        let default name =
          (* Per-option defaults come from the chosen strategy family. *)
          match (name, default_strategy) with
          | "portfolio", Portfolio d -> Portfolio d
          | "portfolio", Bb _ ->
              Portfolio
                {
                  seed = Cellsched.Portfolio.default_seed;
                  restarts = Cellsched.Portfolio.default_restarts;
                }
          | "bb", Bb d -> Bb d
          | "bb", Portfolio _ ->
              Bb
                {
                  rel_gap = Cellsched.Mapping_search.default_options.rel_gap;
                  max_nodes = 50_000;
                }
          | _ -> assert false
        in
        let base =
          match !strategy with
          | Some name -> default name
          | None -> default_strategy
        in
        match base with
        | Portfolio d ->
            if !gap <> None || !max_nodes <> None then
              fail "gap=/max-nodes= apply only to strategy=bb";
            Portfolio
              {
                seed = Option.value !seed ~default:d.seed;
                restarts = Option.value !restarts ~default:d.restarts;
              }
        | Bb d ->
            if !seed <> None || !restarts <> None then
              fail "seed=/restarts= apply only to strategy=portfolio";
            Bb
              {
                rel_gap = Option.value !gap ~default:d.rel_gap;
                max_nodes = Option.value !max_nodes ~default:d.max_nodes;
              }
      in
      if !spes < 0 || !spes > 8 then fail "spes=%d out of range (0-8)" !spes;
      let graph =
        try load_graph file
        with
        | Sys_error m -> fail "%s" m
        | Streaming.Serialize.Parse_error (l, m) -> fail "%s:%d: %s" file l m
      in
      Some
        (make ~label:file
           ~platform:(Cell.Platform.qs22 ~n_spe:!spes ())
           ~graph ~strategy ~deadline_ms:!deadline ~prio:!prio)

let graph_loader () =
  let table = Hashtbl.create 16 in
  fun path ->
    match Hashtbl.find_opt table path with
    | Some g -> g
    | None ->
        let g = Streaming.Serialize.of_file path in
        Hashtbl.add table path g;
        g
