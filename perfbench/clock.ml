(* Monotonic time in seconds: every latency, phase length and layer
   timing of the benchmark is read from this clock, never from the
   wall clock or the daemon's own histograms. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
