(* Tests for the benchmark's own statistics: percentiles, the
   capacity-ladder search, backlog detection, span self time and the
   host-speed normalisation. *)

open Perfbench_lib

let failures = ref 0

let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "median of 1..100 is the 50th value" (close (Stats.median a) 50.0);
  check "p99 of 1..100 is the 99th value" (close (Stats.quantile a 0.99) 99.0);
  check "p100 is the max" (close (Stats.quantile a 1.0) 100.0);
  check "quantile leaves its input unsorted" (close a.(0) 100.0);
  (* the highest percentile with at least ten samples beyond it *)
  check "100 samples: p90" (Stats.tail_quantile 100 = Some 0.9);
  check "1000 samples: p99" (Stats.tail_quantile 1000 = Some 0.99);
  check "999 samples: p90" (Stats.tail_quantile 999 = Some 0.9);
  check "10000 samples: p99.9" (Stats.tail_quantile 10_000 = Some 0.999);
  check "20 samples: p50" (Stats.tail_quantile 20 = Some 0.5);
  check "19 samples: none" (Stats.tail_quantile 19 = None)

let () =
  let rung ?(failed = 0) ?(growing = false) rate tail_ms =
    { Stats.rate; tail_ms; failed; backlog_growing = growing }
  in
  let limit_ms = 5.0 in
  check "ladder: last rung of the passing prefix"
    (Stats.max_rate_at_slo ~limit_ms [ rung 1e5 2.0; rung 5e4 1.0; rung 2e5 9.0 ] = Some 1e5);
  check "ladder: a pass above a failure does not count"
    (Stats.max_rate_at_slo ~limit_ms [ rung 5e4 1.0; rung 1e5 7.0; rung 2e5 3.0 ] = Some 5e4);
  check "ladder: a failed request fails the rung"
    (Stats.max_rate_at_slo ~limit_ms [ rung 5e4 1.0; rung ~failed:1 1e5 1.0 ] = Some 5e4);
  check "ladder: a growing backlog fails the rung"
    (Stats.max_rate_at_slo ~limit_ms [ rung 5e4 1.0; rung ~growing:true 1e5 1.0 ] = Some 5e4);
  check "ladder: nothing passes" (Stats.max_rate_at_slo ~limit_ms [ rung 5e4 6.0 ] = None);
  check "ladder: the limit itself passes"
    (Stats.max_rate_at_slo ~limit_ms [ rung 5e4 5.0 ] = Some 5e4)

let () =
  let series f = Array.init 200 (fun i -> let t = float_of_int i *. 0.005 in (t, f i t)) in
  let rate = 100_000.0 in
  check "backlog: constant with jitter is steady"
    (not
       (Stats.backlog_growing ~rate ~tolerance_s:0.002
          (series (fun i _ -> 50.0 +. float_of_int (i mod 7 * 10)))));
  (* overloaded by 5%: the queue grows by 5,000 requests a second *)
  check "backlog: a queue growing at 5% of the rate is growing"
    (Stats.backlog_growing ~rate ~tolerance_s:0.002 (series (fun _ t -> 5_000.0 *. t)));
  check "backlog: growth under the tolerance is steady"
    (not (Stats.backlog_growing ~rate ~tolerance_s:0.002 (series (fun _ t -> 100.0 *. t))));
  check "backlog: a draining queue is steady"
    (not (Stats.backlog_growing ~rate ~tolerance_s:0.002 (series (fun _ t -> 5_000.0 -. (5_000.0 *. t)))))

let () =
  let span id name start stop parent = { Spans.id; name; start; stop; parent; batch = 0 } in
  (* root [0, 10] with children [1, 3] and [2, 5] (overlapping: union 4)
     and [9, 12] (clipped to 1); the grandchild [1.5, 2] only reduces its
     own parent *)
  let spans =
    [
      span 1 "root" 0.0 10.0 (-1);
      span 2 "a" 1.0 3.0 1;
      span 3 "b" 2.0 5.0 1;
      span 4 "c" 9.0 12.0 1;
      span 5 "d" 1.5 2.0 2;
    ]
  in
  let self = Spans.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Spans.id = id) self) in
  check "self time: overlapping children counted once, overhang clipped" (close (of_id 1) 5.0);
  check "self time: a grandchild only reduces its parent" (close (of_id 2) 1.5);
  check "self time: a leaf keeps its whole duration" (close (of_id 5) 0.5);
  let by = Spans.by_name spans in
  let _, dur, self_total = List.assoc "root" by in
  check "by_name sums durations and self times" (close dur 10.0 && close self_total 5.0);
  (* the recorder itself: nesting through the open-span stack *)
  Spans.enabled := true;
  let outer = Spans.enter "outer" in
  let inner = Spans.enter "inner" in
  Spans.exit inner;
  Spans.exit outer;
  Spans.enabled := false;
  ignore (Spans.enter "ignored");
  let recorded = Spans.collect () in
  check "recorder: a disabled enter records nothing" (List.length recorded = 2);
  check "recorder: the inner span's parent is the open outer span"
    (List.exists (fun s -> s.Spans.name = "inner" && s.Spans.parent = outer) recorded)

(* host-speed normalisation: each unit is charged the mean of the
   reference measured on its two sides *)
let () =
  let samples = ref [ 0.02; 0.03; 0.05 ] in
  let sample () =
    match !samples with
    | x :: rest ->
        samples := rest;
        x
    | [] -> nan
  in
  let host = Calib.start ~sample () in
  let first = Calib.after host in
  let second = Calib.after host in
  check "calib: a unit is charged the mean of its two sides" (close first 0.025);
  check "calib: a measurement serves the units on both its sides" (close second 0.04);
  check "calib: at nominal speed a rate is unchanged"
    (close (Calib.normalise ~ref_s:Calib.nominal_s 1000.0) 1000.0);
  check "calib: a host twice as slow doubles the rate it is charged"
    (close (Calib.normalise ~ref_s:(2.0 *. Calib.nominal_s) 1000.0) 2000.0);
  check "calib: the median of five ignores two outliers"
    (let xs = ref [ 9.0; 1.0; 2.0; 3.0; 0.0 ] in
     close
       (Calib.median5 (fun () ->
            let x = List.hd !xs in
            xs := List.tl !xs;
            x))
       2.0)

let () =
  Printf.printf "perfbench statistics: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
