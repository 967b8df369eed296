(* Statistics the benchmark reports, computed exactly from raw samples.

   Latencies are never read back from [Dvbp_obs.Histogram]: its 1/8-octave
   buckets move quantiles in 6-12.5% steps, coarser than the bounds the
   benchmark gates on. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* nearest rank: the smallest sample with at least [q * n] samples at or
   below it *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan else s.(rank n q - 1)

let quantile a q = quantile_sorted (sorted a) q

let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* samples strictly above the [q] quantile's rank *)
let beyond n q = n - rank n q

(* The highest of the usual reporting percentiles that still has at least
   [min_beyond] samples above it — a p99 over 300 samples would rest on
   three values. *)
let tail_quantile ?(min_beyond = 10) n =
  List.find_opt
    (fun q -> beyond n q >= min_beyond)
    [ 0.9999; 0.999; 0.99; 0.9; 0.5 ]

(* {1 Open-loop capacity search} *)

type rung = {
  rate : float;  (** offered events per second *)
  tail_ms : float;  (** the rung's p99 latency from scheduled send *)
  failed : int;  (** requests answered wrongly, with ERR/REJECT, or never *)
  backlog_growing : bool;
}

(* A rung meets the service-level objective when every request succeeded,
   the queue did not grow, and the tail stayed within the limit. A failed
   request counts as over the limit. *)
let rung_ok ~limit_ms r = r.failed = 0 && (not r.backlog_growing) && r.tail_ms <= limit_ms

(* The highest rate of the ascending prefix of rungs that all meet the
   objective: a pass above a failed rung is noise, not capacity. *)
let max_rate_at_slo ~limit_ms rungs =
  let rungs = List.sort (fun a b -> Float.compare a.rate b.rate) rungs in
  let rec go best = function
    | r :: rest when rung_ok ~limit_ms r -> go (Some r.rate) rest
    | _ -> best
  in
  go None rungs

(* Backlog = requests due by their schedule but not yet answered, sampled
   over a rung as (time, backlog) pairs. It is growing when the
   least-squares trend adds more than [tolerance_s] seconds' worth of
   offered work (and at least [min_requests] requests) across the rung: a
   server that keeps up only jitters around a constant backlog. *)
let backlog_growing ?(min_requests = 32.0) ~rate ~tolerance_s samples =
  let n = Array.length samples in
  if n < 3 then false
  else begin
    let fn = float_of_int n in
    let mx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 samples /. fn in
    let my = Array.fold_left (fun a (_, y) -> a +. y) 0.0 samples /. fn in
    let sxy = ref 0.0 and sxx = ref 0.0 in
    Array.iter
      (fun (x, y) ->
        sxy := !sxy +. ((x -. mx) *. (y -. my));
        sxx := !sxx +. ((x -. mx) *. (x -. mx)))
      samples;
    if !sxx <= 0.0 then false
    else
      let slope = !sxy /. !sxx in
      let span = fst samples.(n - 1) -. fst samples.(0) in
      slope *. span > Float.max min_requests (rate *. tolerance_s)
  end
