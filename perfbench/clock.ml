(* Monotonic wall clock for every timing in the benchmark.

   [Unix.gettimeofday] follows the system clock, which NTP may step or slew
   in the middle of a run; CLOCK_MONOTONIC (read through the installed
   bechamel stub) never goes backwards. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
