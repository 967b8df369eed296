(* [replay]: closed streaming from the binary trace store.

   Setup compiles a >= 1M-event sharded trace (d = 2, mu = 10) with
   [Compile.sharded]. The timed part streams it through [Trace_reader]
   into a Move To Front session, alternating two kinds of pass:
   [Replay.into_session] for throughput, and a block-by-block drive
   ([Trace_reader.read_block] + [Session.apply]) that times every block
   for the latency figures. Each pass's final fingerprint must equal that
   of a session fed the generated instances directly. *)

open Common
module Report = Perfbench_lib.Report
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans
module Clock = Perfbench_lib.Clock
module Calib = Perfbench_lib.Calib
module Rng = Dvbp_prelude.Rng
module Policy = Dvbp_core.Policy
module Bounds = Dvbp_lowerbound.Bounds
module Uniform = Dvbp_workload.Uniform_model
module Compile = Dvbp_tracestore.Compile
module Reader = Dvbp_tracestore.Trace_reader
module Replay = Dvbp_tracestore.Replay
module Binfmt = Dvbp_tracestore.Binfmt

let shards = 20
let shard_items = 25_000
let policy = "mtf"
let params = { (Uniform.table2 ~d:2 ~mu:10) with Uniform.n = shard_items }
let gen ~seed k = Uniform.generate params ~rng:(Rng.split (Rng.create ~seed) ~key:k)

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let fresh_session capacity =
  Session.create ~record_trace:false ~capacity ~policy:(Policy.of_name_exn policy) ()

(* the reference: every shard fed straight into a session, shifted the way
   [Compile.sharded] shifts them *)
let reference ~seed ~policy_name =
  let session = ref None in
  let lb = ref 0.0 in
  let _ =
    List.fold_left
      (fun (time_offset, id_offset) k ->
        let inst = gen ~seed k in
        let s =
          match !session with
          | Some s -> s
          | None ->
              let s =
                Session.create ~record_trace:false ~capacity:inst.Instance.capacity
                  ~policy:(Policy.of_name_exn policy_name) ()
              in
              session := Some s;
              s
        in
        apply_all s (events_of_items ~time_offset ~id_offset inst.Instance.items);
        lb := !lb +. Bounds.height_integral inst;
        Gc.full_major ();
        (time_offset +. Instance.horizon inst +. 1.0, id_offset + Instance.size inst))
      (0.0, 0) (List.init shards Fun.id)
  in
  (Option.get !session, !lb)

type pass = { fingerprint : string; events : int; wall : float; cost : float }

let throughput_pass path =
  ok_or_fail "replay"
  @@ Reader.with_file path (fun reader ->
         let session = fresh_session (Reader.header reader).Binfmt.capacity in
         match Replay.into_session ~clock:Clock.now reader session with
         | Error _ as e -> e
         | Ok st ->
             Ok
               ( {
                   fingerprint = Session.fingerprint session;
                   events = st.Replay.events;
                   wall = st.Replay.wall_seconds;
                   cost = Session.cost_so_far session;
                 },
                 st ))

let feed session (ev : Binfmt.event) =
  match ev.Binfmt.ev_kind with
  | `Arrive ->
      ignore
        (Session.apply session
           (Session.Arrive
              { at = ev.Binfmt.ev_time; id = Some ev.Binfmt.ev_id; size = Vec.of_array ev.Binfmt.ev_size }))
  | `Depart ->
      ignore
        (Session.apply session (Session.Depart { at = ev.Binfmt.ev_time; item_id = ev.Binfmt.ev_id }))

(* block-by-block drive; returns per-block wall seconds *)
let block_pass path =
  ok_or_fail "replay"
  @@ Reader.with_file path (fun reader ->
         let session = fresh_session (Reader.header reader).Binfmt.capacity in
         let blocks = Reader.blocks reader in
         let lat = Array.make blocks 0.0 in
         let events = ref 0 in
         let t_start = Clock.now () in
         let parent = Spans.enter "replay.pass" in
         for b = 0 to blocks - 1 do
           let t0 = Clock.now () in
           let blk = Spans.enter ~parent ~batch:b "replay.block" in
           let evs =
             Spans.with_ "tracestore.read_block" (fun () ->
                 ok_or_fail "read_block" (Reader.read_block reader b))
           in
           Spans.with_ "engine.apply" (fun () -> List.iter (feed session) evs);
           Spans.exit blk;
           events := !events + List.length evs;
           lat.(b) <- Clock.now () -. t0
         done;
         Spans.exit parent;
         let wall = Clock.now () -. t_start in
         Ok
           ( {
               fingerprint = Session.fingerprint session;
               events = !events;
               wall;
               cost = Session.cost_so_far session;
             },
             lat ))

let run ~seed ~seconds ~trace ~sabotage r =
  with_run_dir "replay" @@ fun dir ->
  let path = Filename.concat dir "trace.dvbpt" in
  let setups =
    (* each set-up starts from a settled heap, so the memory high-water
       mark does not depend on when a collection ran *)
    timed_setups ~before:Gc.full_major r 3 (fun () ->
        Clock.time (fun () ->
            ok_or_fail "compile" (Compile.sharded ~path ~shards ~gen:(gen ~seed) ())))
  in
  add r "tracestore.compile_s" (Stats.median (Array.of_list (List.map snd setups)));
  (* generation happens inside the compile; time it on its own *)
  add r "workload.gen_s"
    (snd (Clock.time (fun () -> List.iter (fun k -> ignore (gen ~seed k)) (List.init shards Fun.id))));
  ignore (throughput_pass path);
  let measure ~traced budget =
    Spans.enabled := traced;
    let words0 = words_allocated () and majors0 = major_collections () in
    let t_end = Clock.now () +. budget in
    let through = ref [] and blocks = ref [] in
    (* the host's speed while each throughput pass ran *)
    let host = Calib.start () in
    let pass kind =
      (* a session keeps every item it has seen; collect the previous
         pass's session so each pass starts from the same heap *)
      Gc.full_major ();
      match kind with
      | `Through ->
          let p = throughput_pass path in
          through := (p, Calib.after host) :: !through
      | `Blocks -> blocks := block_pass path :: !blocks
    in
    (* untraced: throughput passes, then one block-by-block pass for the
       latency figures; traced: block-by-block passes only *)
    let kind = if traced then `Blocks else `Through in
    pass kind;
    while Clock.now () < t_end do
      pass kind
    done;
    if not traced then pass `Blocks;
    Spans.enabled := false;
    (List.rev !through, List.rev !blocks, words_allocated () -. words0, major_collections () - majors0)
  in
  let through, blocks, words, majors =
    measure ~traced:false ((if trace then 0.4 else 0.9) *. seconds)
  in
  let pass_eps = List.map (fun ((p, _), _) -> float_of_int p.events /. p.wall) through in
  let norm_eps =
    List.map2 (fun eps (_, ref_s) -> Calib.normalise ~ref_s eps) pass_eps through
  in
  Printf.printf "info   replay passes: %s events/s; at nominal host speed %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.0f") pass_eps))
    (String.concat ", " (List.map (Printf.sprintf "%.0f") norm_eps));
  let eps = Stats.median (Array.of_list pass_eps) in
  add r "events_per_s" eps;
  add r "sustained_eps" eps;
  add r "sustained_eps_norm" (Stats.median (Array.of_list norm_eps));
  add r "host.ref_ms" (1e3 *. Stats.median (Array.of_list (List.map snd through)));
  let lat = Array.concat (List.map snd blocks) in
  add r "p50_ms" (1e3 *. Stats.quantile lat 0.5);
  add r "p99_ms" (1e3 *. Stats.quantile lat 0.99);
  let (_, st), _ = List.hd through in
  add r "resident_kb" (float_of_int st.Replay.resident_bytes_max /. 1024.0);
  add r "tracestore.blocks" (float_of_int st.Replay.blocks);
  let passes = List.map (fun ((p, _), _) -> p) through @ List.map fst blocks in
  let events = List.fold_left (fun acc p -> acc + p.events) 0 passes in
  add r "runtime.alloc_words_per_event" (words /. float_of_int events);
  add r "runtime.major_gcs" (float_of_int majors);
  Printf.printf "info   replay: %d events per pass, %d throughput passes, %d block passes\n"
    st.Replay.events (List.length through) (List.length blocks);
  if trace then begin
    Spans.reset ();
    let _, traced, _, _ = measure ~traced:true (0.6 *. seconds) in
    let rate ps =
      let ev = List.fold_left (fun a (p, _) -> a + p.events) 0 ps
      and w = List.fold_left (fun a (p, _) -> a +. p.wall) 0.0 ps in
      float_of_int ev /. w
    in
    add r "trace.overhead_pct" (100.0 *. ((rate blocks /. rate traced) -. 1.0));
    let spans = Spans.collect () in
    let layers = Spans.by_name spans in
    let total name = match List.assoc_opt name layers with Some (_, d, _) -> d | None -> 0.0 in
    let ev = float_of_int (List.fold_left (fun a (p, _) -> a + p.events) 0 traced) in
    add r "tracestore.decode_ns_per_event" (1e9 *. total "tracestore.read_block" /. ev);
    add r "engine.apply_ns_per_event" (1e9 *. total "engine.apply" /. ev);
    write_spans "replay" ~seed spans layers
  end;
  (* correctness, outside the timed window *)
  let ref_session, lb =
    reference ~seed ~policy_name:(if sabotage then "ff" else policy)
  in
  let expected = Session.fingerprint ref_session in
  let bad = List.filter (fun p -> p.fingerprint <> expected) passes in
  Report.check r "replay.fingerprint" (bad = [])
    (Printf.sprintf "%d of %d passes match a session fed the instances directly"
       (List.length passes - List.length bad) (List.length passes));
  let failed = List.fold_left (fun acc p -> acc + p.events) 0 bad in
  Report.count r ~attempted:events ~failed;
  add r "failed_frac" (float_of_int failed /. float_of_int events);
  add r "cost_over_lb" ((List.hd passes).cost /. lb);
  add_scan_stats r (session_tallies [ ref_session ])
