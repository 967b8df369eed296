(* Shared by the three workloads: the metric catalogue, the run directory,
   runtime counters and event streams. *)

module Vec = Dvbp_vec.Vec
module Item = Dvbp_core.Item
module Instance = Dvbp_core.Instance
module Session = Dvbp_engine.Session

(* Printed by an untraced run ([--trace 0]); BENCHMARK.json lists the same
   names. Every workload measures every one of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("rss_peak_mb", "MB");
    ("sustained_eps_norm", "1/s");
    ("cost_over_lb", "ratio");
  ]

(* Printed by a traced run ([--trace 1]). A layer a workload does not
   exercise reports 0. *)
let per_layer =
  [
    ("core.scan_candidates_per_arrival", "count");
    ("core.memo_hit_ratio", "ratio");
    ("engine.apply_ns_per_event", "ns");
    ("engine.repack_ns_per_item", "ns");
    ("engine.repack_migrations_per_item", "count");
    ("lowerbound.bound_s", "s");
    ("reduce.ns_per_item", "ns");
    ("parallel.busy_ratio", "ratio");
    ("parallel.straggler_s", "s");
    ("service.encode_ns_per_event", "ns");
    ("service.append_ns_per_event", "ns");
    ("service.fsync_ns_per_event", "ns");
    ("service.handle_batch_ns_per_event", "ns");
    ("service.event_loop_ns_per_event", "ns");
    ("service.fsync_ms_p50", "ms");
    ("service.fsync_ms_p99", "ms");
    ("service.events_per_fsync", "count");
    ("service.compactions", "count");
    ("service.compaction_ms_max", "ms");
    ("service.snapshot_bytes", "bytes");
    ("service.recovery_read_s", "s");
    ("service.recovery_replay_s", "s");
    ("tracestore.decode_ns_per_event", "ns");
    ("tracestore.blocks", "count");
    ("tracestore.compile_s", "s");
    ("obs.overhead_pct", "%");
    ("runtime.alloc_words_per_event", "count");
    ("runtime.major_gcs", "count");
    ("workload.gen_s", "s");
    ("gen.late_ms_p99", "ms");
    ("trace.overhead_pct", "%");
    ("host.ref_ms", "ms");
    ("setup_raw_s", "s");
    ("sustained_eps", "1/s");
    (* the workload-specific end-to-end figures, as measured in the
       traced run *)
    ("failed_frac", "ratio");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("items_per_s", "1/s");
    ("p50_ms_light", "ms");
    ("p99_ms_light", "ms");
    ("p50_ms_heavy", "ms");
    ("p99_ms_heavy", "ms");
    ("max_eps_at_slo", "1/s");
    ("recover_s", "s");
    ("journal_bytes_per_event", "bytes");
    ("events_per_s", "1/s");
    ("resident_kb", "kB");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> ( match List.assoc_opt name per_layer with Some u -> u | None -> "")

let add r name v = Perfbench_lib.Report.add r name ~unit_:(unit_of name) v

(* Layers a workload does not touch report 0, so every traced run prints
   the whole catalogue. *)
let zero_unmeasured r =
  List.iter
    (fun (name, unit_) ->
      if Perfbench_lib.Report.find r name = None then
        Perfbench_lib.Report.add r name ~unit_ 0.0)
    per_layer

(* [core.*] from fit-scan tallies, each paired with the arrivals placed *)
let add_scan_stats r tallies =
  let module B = Dvbp_core.Bin_registry in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  add r "core.scan_candidates_per_arrival"
    (float_of_int (sum (fun ((st : B.scan_stats), _) -> st.B.candidates))
    /. float_of_int (max 1 (sum snd)));
  add r "core.memo_hit_ratio"
    (float_of_int (sum (fun ((st : B.scan_stats), _) -> st.B.memo_hits))
    /. float_of_int (max 1 (sum (fun ((st : B.scan_stats), _) -> st.B.scans))))

let session_tallies sessions =
  List.map (fun s -> (Session.scan_stats s, Session.placements s)) sessions

(* {1 Set-up} *)

(* Runs the set-up [f] [n] times, with [before] untimed ahead of each and
   the reference job between them, and returns the results. [setup_s] is
   the median set-up time at nominal host speed (see [Calib]); the
   wall-clock median is [setup_raw_s]. *)
let timed_setups ?(before = ignore) r n f =
  let module Calib = Perfbench_lib.Calib in
  let host = Calib.start () in
  let runs =
    List.init n (fun _ ->
        before ();
        let v, s = Perfbench_lib.Clock.time f in
        (v, s, Calib.after host))
  in
  let median g = Perfbench_lib.Stats.median (Array.of_list (List.map g runs)) in
  add r "setup_s" (median (fun (_, s, ref_s) -> Calib.seconds_at_nominal ~ref_s s));
  add r "setup_raw_s" (median (fun (_, s, _) -> s));
  List.map (fun (v, _, _) -> v) runs

(* {1 Run directory} *)

(* Scratch files (journals, snapshots, traces) live under the checkout's
   ignored build directory and are removed when the workload ends. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let with_run_dir name f =
  let dir =
    Filename.concat ".bench_build"
      (Filename.concat "run" (Printf.sprintf "%s-%d" name (Unix.getpid ())))
  in
  remove_tree dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* {1 Runtime counters} *)

let words_allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* {1 Event streams} *)

(* An instance's arrivals and departures in the engine's replay order:
   by time, departures before arrivals at equal instants, then by id. *)
let events_of_items ?(time_offset = 0.0) ?(id_offset = 0) items =
  let keyed =
    List.concat_map
      (fun (it : Item.t) ->
        [
          (it.Item.arrival +. time_offset, 1, it.Item.id + id_offset, Some it.Item.size);
          (it.Item.departure +. time_offset, 0, it.Item.id + id_offset, None);
        ])
      items
    |> Array.of_list
  in
  Array.sort
    (fun (ta, ka, ia, _) (tb, kb, ib, _) ->
      match Float.compare ta tb with
      | 0 -> ( match Int.compare ka kb with 0 -> Int.compare ia ib | c -> c)
      | c -> c)
    keyed;
  Array.map
    (fun (at, _, id, size) ->
      match size with
      | Some size -> Session.Arrive { at; id = Some id; size }
      | None -> Session.Depart { at; item_id = id })
    keyed

let events_of_instance (inst : Instance.t) = events_of_items inst.Instance.items

let apply_all session events = Array.iter (fun e -> ignore (Session.apply session e)) events

(* {1 Traces} *)

(* Writes the traced run's spans under the build directory and prints the
   self time of every span name. *)
let write_spans workload ~seed spans layers =
  let dir = Filename.concat ".bench_build" "traces" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload seed) in
  Perfbench_lib.Spans.write path spans;
  Printf.printf "info   %d spans written to %s\n" (List.length spans) path;
  List.iter
    (fun (name, (n, dur, self)) ->
      Printf.printf "span   %-34s n=%-8d total=%10.6f s  self=%10.6f s\n" name n dur self)
    layers
