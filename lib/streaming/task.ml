type t = {
  name : string;
  w_ppe : float;
  w_spe : float;
  peek : int;
  stateful : bool;
  read_bytes : float;
  write_bytes : float;
}

let make ?(peek = 0) ?(stateful = false) ?(read_bytes = 0.) ?(write_bytes = 0.)
    ~name ~w_ppe ~w_spe () =
  if name = "" then invalid_arg "Task.make: empty name";
  (* [nan < 0.] is false: finiteness needs its own test. *)
  if not (Float.is_finite w_ppe && Float.is_finite w_spe) then
    invalid_arg "Task.make: non-finite cost";
  if w_ppe < 0. || w_spe < 0. then invalid_arg "Task.make: negative cost";
  if peek < 0 then invalid_arg "Task.make: negative peek";
  if not (Float.is_finite read_bytes && Float.is_finite write_bytes) then
    invalid_arg "Task.make: non-finite memory traffic";
  if read_bytes < 0. || write_bytes < 0. then
    invalid_arg "Task.make: negative memory traffic";
  { name; w_ppe; w_spe; peek; stateful; read_bytes; write_bytes }

let w t = function Cell.Platform.PPE -> t.w_ppe | Cell.Platform.SPE -> t.w_spe

let pp ppf t =
  Format.fprintf ppf "%s{wPPE=%.3g wSPE=%.3g peek=%d%s%s%s}" t.name t.w_ppe
    t.w_spe t.peek
    (if t.stateful then " stateful" else "")
    (if t.read_bytes > 0. then Printf.sprintf " read=%.0fB" t.read_bytes else "")
    (if t.write_bytes > 0. then Printf.sprintf " write=%.0fB" t.write_bytes
     else "")
