(* The request population and the per-workload streams, all derived
   from the benchmark seed. The daemon only ever sees the generated
   graph files and request lines. *)

module Request = Service.Request

(* The paper's three experiment graphs and the audio encoder are
   fixed; the tail of small daggen graphs changes with the seed, so a
   second seed exercises a different population. *)
let graphs ~seed =
  let fixed =
    [
      ("graph1.g", Daggen.Presets.random_graph_1 ());
      ("graph2.g", Daggen.Presets.random_graph_2 ());
      ("graph3.g", Daggen.Presets.random_graph_3 ());
      ("audio.g", Daggen.Presets.audio_encoder ());
    ]
  in
  let tail =
    List.init 13 (fun i ->
        let rng = Support.Rng.create ((seed * 7919) + 7100 + i) in
        let shape =
          {
            Daggen.Generator.n = 10 + (i mod 4);
            fat = 1.5;
            density = 0.4;
            regularity = 0.5;
            jump = 2;
          }
        in
        ( Printf.sprintf "tail%02d.g" i,
          Daggen.Generator.generate ~rng ~shape
            ~costs:Daggen.Generator.default_costs ))
  in
  fixed @ tail

let bb_max_nodes = 50_000

let strategies =
  [
    Request.Portfolio { seed = Cellsched.Portfolio.default_seed; restarts = 6 };
    Request.Bb { rel_gap = 0.05; max_nodes = bb_max_nodes };
  ]

(* Write every graph file into the current directory, where the daemon
   is started, so request labels are the file names. *)
let write_graphs ~seed =
  List.iter (fun (file, g) -> Streaming.Serialize.to_file g file) (graphs ~seed)

(* Requests as the daemon will build them: parsed from the rendered
   line with graphs loaded from the written files. *)
let loader () =
  let table = Hashtbl.create 32 in
  fun file ->
    match Hashtbl.find_opt table file with
    | Some g -> g
    | None ->
        let g = Streaming.Serialize.of_file file in
        Hashtbl.add table file g;
        g

let parse ~load_graph line =
  match Request.parse_line ~load_graph 0 line with
  | Some r -> r
  | None -> invalid_arg ("empty request line: " ^ line)

(* One request of a stream: its line (without id) and the index of its
   problem in the population. *)
type item = { line : string; problem : int }

type t = {
  lines : string array;  (* population, rank order *)
  problems : Request.t array;  (* parsed from [lines] *)
}

(* Popularity rank is fixed: the seed draws the stream and the tail
   graphs, but which kinds of problem are hot stays the same, so a run's
   cost does not hinge on whether the seed made a 94-task graph the
   hottest problem. *)
let rank_seed = 10

let create ~seed =
  let pop =
    Service.Workload.population
      {
        Service.Workload.default_spec with
        seed = rank_seed;
        graphs = graphs ~seed;
        spes = [ 4; 8 ];
        strategies;
      }
  in
  let lines = Array.map Service.Workload.line pop in
  let load_graph = loader () in
  let problems = Array.map (parse ~load_graph) lines in
  { lines; problems }

let size t = Array.length t.lines

(* A zipf stream of [requests] over the fixed ranking: rank k gets its
   exact share (weight 1/(k+1)^skew, largest remainders rounded up) and
   the seed shuffles the order, so every seed offers the same mix. *)
let zipf t ~seed ~skew ~requests =
  let n = size t in
  let weight = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) skew) in
  let total = Array.fold_left ( +. ) 0. weight in
  let exact = Array.map (fun w -> w /. total *. float_of_int requests) weight in
  let counts = Array.map truncate exact in
  let short = requests - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (exact.(b) -. floor exact.(b)) (exact.(a) -. floor exact.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    counts.(by_remainder.(i)) <- counts.(by_remainder.(i)) + 1
  done;
  let stream = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  Support.Rng.shuffle (Support.Rng.create (seed + 0x9e3779b1)) stream;
  Array.map (fun problem -> { line = t.lines.(problem); problem }) stream

(* A seeded permutation of the population, no fingerprint repeated:
   the preset problems first, then the tail, each group in seeded
   order. The few long preset solves then never straggle at the end of
   a pass with one daemon domain idle. *)
let permutation t ~seed =
  let order = Array.init (size t) Fun.id in
  Support.Rng.shuffle (Support.Rng.create (seed + 0x7a11)) order;
  let preset i = not (String.starts_with ~prefix:"tail" t.problems.(i).Request.label) in
  let presets, tail = List.partition preset (Array.to_list order) in
  Array.of_list (List.map (fun i -> { line = t.lines.(i); problem = i }) (presets @ tail))
