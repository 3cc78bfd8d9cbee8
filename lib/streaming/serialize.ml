exception Parse_error of int * string

(* The format tokenizes on whitespace and strips '#' comments, so task
   names containing such bytes would corrupt the stream when printed
   raw (the round-trip bug pinned by test_streaming). Names are
   percent-encoded on output: every byte that could break tokenization
   ('#', '=', '%', whitespace, non-printables) becomes "%XX". *)
let must_escape = function
  | ' ' | '\t' | '\n' | '\r' | '#' | '%' | '=' -> true
  | c -> Char.code c < 0x20 || Char.code c > 0x7e

let escape_name name =
  if not (String.exists must_escape name) then name
  else begin
    let buf = Buffer.create (String.length name + 8) in
    String.iter
      (fun c ->
        if must_escape c then
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      name;
    Buffer.contents buf
  end

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# cellstream application graph\n";
  for k = 0 to Graph.n_tasks g - 1 do
    let t = Graph.task g k in
    Buffer.add_string buf
      (Printf.sprintf
         "task %s wppe=%.17g wspe=%.17g peek=%d stateful=%d read=%.17g \
          write=%.17g\n"
         (escape_name t.Task.name) t.Task.w_ppe t.Task.w_spe t.Task.peek
         (if t.Task.stateful then 1 else 0)
         t.Task.read_bytes t.Task.write_bytes)
  done;
  for e = 0 to Graph.n_edges g - 1 do
    let { Graph.src; dst; data_bytes } = Graph.edge g e in
    Buffer.add_string buf
      (Printf.sprintf "edge %s %s data=%.17g\n"
         (escape_name (Graph.task g src).Task.name)
         (escape_name (Graph.task g dst).Task.name)
         data_bytes)
  done;
  Buffer.contents buf

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

let unescape_name lineno word =
  match String.index_opt word '%' with
  | None -> word
  | Some _ ->
      let buf = Buffer.create (String.length word) in
      let n = String.length word in
      let i = ref 0 in
      while !i < n do
        (if word.[!i] <> '%' then Buffer.add_char buf word.[!i]
         else begin
           if !i + 2 >= n then fail lineno "truncated %%XX escape in %S" word;
           (match int_of_string_opt ("0x" ^ String.sub word (!i + 1) 2) with
           | Some code -> Buffer.add_char buf (Char.chr code)
           | None -> fail lineno "invalid %%XX escape in %S" word);
           i := !i + 2
         end);
        incr i
      done;
      Buffer.contents buf

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* Parse a [key=value] word. *)
let keyval lineno word =
  match String.index_opt word '=' with
  | None -> fail lineno "expected key=value, got %S" word
  | Some i ->
      ( String.sub word 0 i,
        String.sub word (i + 1) (String.length word - i - 1) )

let float_of lineno key v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> fail lineno "invalid float for %s: %S" key v

let int_of lineno key v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> fail lineno "invalid int for %s: %S" key v

let parse_task lineno words =
  match words with
  | name :: attrs ->
      let name = unescape_name lineno name in
      let w_ppe = ref None
      and w_spe = ref None
      and peek = ref 0
      and stateful = ref false
      and read_bytes = ref 0.
      and write_bytes = ref 0. in
      let set word =
        let key, v = keyval lineno word in
        match key with
        | "wppe" -> w_ppe := Some (float_of lineno key v)
        | "wspe" -> w_spe := Some (float_of lineno key v)
        | "peek" -> peek := int_of lineno key v
        | "stateful" -> stateful := int_of lineno key v <> 0
        | "read" -> read_bytes := float_of lineno key v
        | "write" -> write_bytes := float_of lineno key v
        | _ -> fail lineno "unknown task attribute %S" key
      in
      List.iter set attrs;
      let require what = function
        | Some v -> v
        | None -> fail lineno "task %s: missing %s" name what
      in
      let w_ppe = require "wppe" !w_ppe and w_spe = require "wspe" !w_spe in
      (try
         Task.make ~name ~w_ppe ~w_spe ~peek:!peek ~stateful:!stateful
           ~read_bytes:!read_bytes ~write_bytes:!write_bytes ()
       with Invalid_argument m -> fail lineno "%s" m)
  | [] -> fail lineno "task line without a name"

let of_string s =
  let b = Graph.builder () in
  let ids = Hashtbl.create 16 in
  let handle lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match split_words line with
    | [] -> ()
    | "task" :: rest ->
        let task = parse_task lineno rest in
        let id =
          try Graph.add_task b task
          with Invalid_argument m -> fail lineno "%s" m
        in
        Hashtbl.replace ids task.Task.name id
    | "edge" :: src :: dst :: attrs ->
        let lookup word =
          let name = unescape_name lineno word in
          match Hashtbl.find_opt ids name with
          | Some id -> id
          | None -> fail lineno "edge references unknown task %S" name
        in
        let data = ref None in
        let set word =
          let key, v = keyval lineno word in
          match key with
          | "data" -> data := Some (float_of lineno key v)
          | _ -> fail lineno "unknown edge attribute %S" key
        in
        List.iter set attrs;
        let data_bytes =
          match !data with
          | Some d -> d
          | None -> fail lineno "edge without data= attribute"
        in
        (* [Graph.add_edge] rejects negative sizes only ([nan < 0.] is
           false); a graph file must give finite ones. *)
        if not (Float.is_finite data_bytes) then
          fail lineno "non-finite data size";
        (try Graph.add_edge b ~src:(lookup src) ~dst:(lookup dst) ~data_bytes
         with Invalid_argument m -> fail lineno "%s" m)
    | word :: _ -> fail lineno "unknown directive %S" word
  in
  List.iteri
    (fun i line -> handle (i + 1) line)
    (String.split_on_char '\n' s);
  try Graph.build b with Invalid_argument m -> raise (Parse_error (0, m))

let to_file g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
