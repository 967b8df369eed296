(* Host speed, from a fixed reference job timed next to the measured work.

   The benchmark shares a few cores of a host with other tenants, whose
   load slows every program on it by up to a third over a minute and by
   more between runs. The reference job below is the same work in every
   version of dvbp (it calls nothing in lib/), so the time it takes moves
   only with the host. A throughput figure multiplied by
   [job seconds now / nominal_s] is the throughput the same code would
   reach on a host where the job takes [nominal_s]: most of the host's
   drift cancels, a change in dvbp does not. The job mixes what the
   workloads do (short-lived allocation, hashing, a working set larger
   than the L2 cache) so that contention slows it much as it slows them;
   not exactly, so some drift remains. *)

(* a round figure near the job's median time on the 2 GHz Xeon vCPUs the
   benchmark was tuned on; it only sets the scale of every normalised
   figure *)
let nominal_s = 0.025

let table_words = 1 lsl 19 (* 4 MiB of floats *)
let table = Domain.DLS.new_key (fun () -> Array.make table_words 1.0)

let job () =
  let acc = ref 0 in
  for i = 1 to 18_000 do
    let l = List.init 12 (fun k -> k lxor i) in
    acc := !acc + List.fold_left ( + ) 0 l
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 60_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  acc := !acc + Hashtbl.length h;
  let a = Domain.DLS.get table in
  let mask = table_words - 1 and s = ref 0.0 and j = ref 0 in
  for _ = 1 to 600_000 do
    j := (!j + 4099) land mask;
    s := !s +. a.(!j);
    a.(!j) <- !s *. 0.5
  done;
  ignore (Sys.opaque_identity (!acc, !s))

(* median of five calls: one run of the job alone moves with the
   scheduler's jitter *)
let median5 f =
  let t = Array.init 5 (fun _ -> f ()) in
  Array.sort Float.compare t;
  t.(2)

(* wall seconds of the job on this domain *)
let measure () = median5 (fun () -> snd (Clock.time job))

(* The reference measured between consecutive units of timed work: each
   unit is charged the mean of the measurements just before and just after
   it, and a measurement serves the units on both its sides. *)
type tracker = { sample : unit -> float; mutable last : float }

let start ?(sample = measure) () = { sample; last = sample () }

(* the host's reference seconds for the unit that has just ended *)
let after t =
  let now = t.sample () in
  let ref_s = 0.5 *. (t.last +. now) in
  t.last <- now;
  ref_s

(* [seconds] of wall time at the nominal host speed, given the job's wall
   seconds [ref_s] measured next to it *)
let seconds_at_nominal ~ref_s seconds = seconds *. nominal_s /. ref_s

(* [rate] (work per wall second) at the nominal host speed, given the
   job's wall seconds [ref_s] measured next to it *)
let normalise ~ref_s rate = rate *. ref_s /. nominal_s
