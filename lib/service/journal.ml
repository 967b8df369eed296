module Vec = Dvbp_vec.Vec

let magic = "# dvbp-journal v2"
let magic_v1 = "# dvbp-journal v1"

(* the codec lives in {!Record} (shared with {!Segment}); re-exported here
   so every existing caller keeps reading [Journal.Arrive]/[Journal.header] *)
type header = Record.header = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  base : int;
}

type event = Record.event =
  | Arrive of {
      tenant : string;
      time : float;
      item_id : int;
      size : Vec.t;
      bin_id : int;
      opened_new_bin : bool;
    }
  | Depart of { tenant : string; time : float; item_id : int }

let event_time = Record.event_time
let event_item = Record.event_item
let event_tenant = Record.event_tenant
let equal_event = Record.equal_event
let pp_event = Record.pp_event
let encode_event = Record.encode_event
let decode_event = Record.decode_event

(* ---------- reading ---------- *)

type read = {
  header : header;
  events : event list;
  dropped_torn : bool;
  version : int;
}

(* legacy single-file reader (v1/v2 magic). Kept for reading journals from
   before the segmented format; {!append_to} migrates such a file into an
   active segment before the first new record. *)
let of_string text =
  let ( let* ) = Result.bind in
  if String.trim text = "" then Error "empty journal"
  else begin
    let terminated = text.[String.length text - 1] = '\n' in
    let lines = String.split_on_char '\n' text in
    (* a terminated file splits into a final "" pseudo-line: drop it *)
    let lines =
      if terminated then
        match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
      else lines
    in
    let p = Record.empty_partial () in
    let version = ref 2 in
    (* The final line of an unterminated file is a torn-write candidate: if
       it fails to parse it is dropped (the crash interrupted the append),
       never reported as corruption. Everywhere else, failures are hard. *)
    let rec go line ~events = function
      | [] ->
          let* header = Record.finish_header p in
          Ok { header; events = List.rev events; dropped_torn = false; version = !version }
      | raw :: rest -> (
          let torn_candidate = rest = [] && not terminated in
          let trimmed = String.trim raw in
          let tear_or error =
            if torn_candidate then
              let* header = Record.finish_header p in
              Ok { header; events = List.rev events; dropped_torn = true; version = !version }
            else error ()
          in
          if line = 1 then
            if trimmed = magic then go 2 ~events rest
            else if trimmed = magic_v1 then begin
              version := 1;
              go 2 ~events rest
            end
            else Error (Printf.sprintf "line 1: expected %S, got %S" magic trimmed)
          else if trimmed = "" || trimmed.[0] = '#' then go (line + 1) ~events rest
          else if Record.is_record trimmed then
            (* records may only follow a complete header *)
            let* _ = Record.finish_header p in
            match Record.decode_event ~version:!version trimmed with
            | Ok e -> go (line + 1) ~events:(e :: events) rest
            | Error msg ->
                tear_or (fun () -> Error (Printf.sprintf "line %d: %s" line msg))
          else
            match Record.header_row ~line p trimmed with
            | Ok () -> go (line + 1) ~events rest
            | Error msg -> tear_or (fun () -> Error msg))
    in
    go 1 ~events:[] lines
  end

let view_read (v : Log.view) =
  {
    header = v.Log.v_header;
    events = v.Log.v_events;
    dropped_torn = v.Log.v_dropped_torn;
    version = 2;
  }

let read_file ?(io = Real_io.v) path =
  if io.Io.file_exists path then
    match io.Io.read_file path with Ok text -> of_string text | Error msg -> Error msg
  else
    match Log.read ~io path with
    | Error msg -> Error msg
    | Ok (Some v) -> Ok (view_read v)
    | Ok None -> Error (Printf.sprintf "%s: no journal (no file, no segments)" path)

(* A journal "exists" once it holds durable state a resume must not ignore:
   a legacy file, any segment with a complete header — or unreadable
   segments, which must surface as a resume error rather than be shadowed
   by a silent fresh start. *)
let exists ?(io = Real_io.v) path =
  io.Io.file_exists path
  || (match Log.read ~io path with Ok None -> false | Ok (Some _) | Error _ -> true)

(* ---------- writing ---------- *)

type sealed_info = {
  si_idx : int;
  si_base : int;
  si_count : int;
  si_bytes : int;
  si_path : string;
}

type writer = {
  w_path : string;
  io : Io.t;
  metrics : Metrics.t;
  fsync_every : int;
  segment_bytes : int;
  shape : header;  (* policy/seed/capacity template for new segment headers *)
  mutable out : Io.out;
  mutable active_idx : int;
  mutable active_base : int;
  mutable active_count : int;
  mutable active_bytes : int;  (* active file size, header included *)
  mutable crc : int;  (* running CRC-32 of the active record region *)
  sealed : sealed_info Queue.t;  (* ascending index: seal pushes, retire pops *)
  mutable sealed_bytes : int;  (* total [si_bytes] over [sealed] *)
  batch : Record.Buf.t;  (* record bytes of the commit in progress, reused *)
  rows : Record.columns;  (* [append_batch]'s events as columns, reused *)
  mutable unsynced : int;
  mutable appended : int;
  mutable closed : bool;
}

let path w = w.w_path
let appended w = w.appended
let default_segment_bytes = 1 lsl 20

let validate_fsync_every fsync_every =
  if fsync_every < 1 then
    invalid_arg (Printf.sprintf "fsync_every must be >= 1, got %d" fsync_every)

let validate_segment_bytes segment_bytes =
  if segment_bytes < 64 then
    invalid_arg (Printf.sprintf "segment_bytes must be >= 64, got %d" segment_bytes)

let crc_add crc s =
  Dvbp_tracestore.Crc32.update crc
    (Bytes.unsafe_of_string s)
    ~pos:0 ~len:(String.length s)

(* The commit buffer starts at [batch_initial] bytes and grows with the
   largest batch; a commit that leaves it above [batch_retained] hands the
   storage back, so a burst's buffer does not stay resident. *)
let batch_initial = 65536
let batch_retained = 1 lsl 20

let frontier w = w.active_base + w.active_count
let sealed_segments w = Queue.length w.sealed
let live_bytes w = w.active_bytes + w.sealed_bytes

let gauges w =
  Metrics.set_journal_live w.metrics
    ~segments:(sealed_segments w + 1)
    ~bytes:(live_bytes w)

let make_writer ~path ~io ~metrics ~fsync_every ~segment_bytes ~shape ~out
    ~active_idx ~active_base ~active_count ~active_bytes ~crc ~sealed =
  let w =
    {
      w_path = path;
      io;
      metrics;
      fsync_every;
      segment_bytes;
      shape;
      out;
      active_idx;
      active_base;
      active_count;
      active_bytes;
      crc;
      sealed = Queue.of_seq (List.to_seq sealed);
      sealed_bytes = List.fold_left (fun acc s -> acc + s.si_bytes) 0 sealed;
      batch = Record.Buf.create batch_initial;
      rows = Record.columns 64;
      unsynced = 0;
      appended = 0;
      closed = false;
    }
  in
  gauges w;
  w

(* open a fresh active segment and make its header durable; the caller
   issues the directory fsync (usually batched with other entry changes) *)
let open_active ~(io : Io.t) ~path ~idx ~base shape =
  let p = Segment.name path ~idx Segment.Active in
  let out = io.Io.open_out ~append:false p in
  let hdr = Segment.header_string { shape with base } in
  out.Io.write hdr;
  out.Io.fsync ();
  (out, String.length hdr)

let create ?(io = Real_io.v) ?metrics ?(fsync_every = 64)
    ?(segment_bytes = default_segment_bytes) ~path header =
  let metrics = match metrics with Some m -> m | None -> Metrics.noop () in
  validate_fsync_every fsync_every;
  validate_segment_bytes segment_bytes;
  if header.base < 0 then invalid_arg "journal base must be non-negative";
  (* wipe whatever previous journal lived at this path: the legacy single
     file and any segment files (including crashed-genesis leftovers) *)
  let leftovers =
    (if io.Io.file_exists path then [ path ] else []) @ Log.all_paths ~io path
  in
  List.iter (fun p -> io.Io.remove p) leftovers;
  if leftovers <> [] then io.Io.fsync_dir (Filename.dirname path);
  let out, hbytes = open_active ~io ~path ~idx:0 ~base:header.base header in
  io.Io.fsync_dir (Filename.dirname path);
  make_writer ~path ~io ~metrics ~fsync_every ~segment_bytes ~shape:header ~out
    ~active_idx:0 ~active_base:header.base ~active_count:0 ~active_bytes:hbytes
    ~crc:0 ~sealed:[]

(* Seal protocol: footer (count + region CRC), fsync, close, rename [.open]
   → [.seg], open the successor active with its header, one directory
   fsync covering both entry changes. The content fsync {e precedes} the
   rename, so a file named [.seg] is complete by construction — the read
   side ({!Segment.parse}) leans on that to reject any torn sealed file.
   With the {!Log.defeat_seal_check} test hook on, footer and fsync are
   skipped — the sweep uses that to prove the protocol is load-bearing. *)
let seal_active w =
  let dir = Filename.dirname w.w_path in
  if not !Log.defeat_seal_check then begin
    let footer = Segment.footer_string ~count:w.active_count ~crc:w.crc in
    w.out.Io.write footer;
    w.active_bytes <- w.active_bytes + String.length footer;
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ())
  end;
  w.out.Io.close ();
  let src = Segment.name w.w_path ~idx:w.active_idx Segment.Active in
  let dst = Segment.name w.w_path ~idx:w.active_idx Segment.Sealed in
  w.io.Io.rename ~src ~dst;
  Queue.push
    {
      si_idx = w.active_idx;
      si_base = w.active_base;
      si_count = w.active_count;
      si_bytes = w.active_bytes;
      si_path = dst;
    }
    w.sealed;
  w.sealed_bytes <- w.sealed_bytes + w.active_bytes;
  Metrics.on_seal w.metrics;
  let idx = w.active_idx + 1 and base = w.active_base + w.active_count in
  let out, hbytes = open_active ~io:w.io ~path:w.w_path ~idx ~base w.shape in
  w.io.Io.fsync_dir dir;
  w.out <- out;
  w.active_idx <- idx;
  w.active_base <- base;
  w.active_count <- 0;
  w.active_bytes <- hbytes;
  w.crc <- 0;
  w.unsynced <- 0;
  gauges w

let check_open w = if w.closed then invalid_arg "journal writer is closed"

(* The record's bytes are encoded into [w.batch], checksummed there in
   place, and copied out once for the write. *)
let append w e =
  check_open w;
  let b = w.batch in
  Record.Buf.clear b;
  Record.add_record b e;
  let bytes = Record.Buf.length b in
  (* line and terminator go out as separate writes: each is an I/O
     boundary a crash can land on, and the crash sweeps number them *)
  w.out.Io.write (Bytes.sub_string b.Record.Buf.bytes 0 (bytes - 1));
  w.out.Io.write "\n";
  w.out.Io.flush ();
  Metrics.on_append w.metrics ~bytes;
  w.appended <- w.appended + 1;
  w.active_count <- w.active_count + 1;
  w.active_bytes <- w.active_bytes + bytes;
  w.crc <- Dvbp_tracestore.Crc32.update w.crc b.Record.Buf.bytes ~pos:0 ~len:bytes;
  w.unsynced <- w.unsynced + 1;
  if w.active_bytes >= w.segment_bytes then seal_active w
  else if w.unsynced >= w.fsync_every then begin
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
    w.unsynced <- 0
  end

(* Group commit: the record rows of [c] in [pos, pos + len) become one
   buffered write and exactly one fsync — which, because fsync covers the
   file, also makes durable any records a streaming [append] left
   unsynced. Records are encoded straight from the columns into the
   writer's reused [batch] buffer, the region CRC runs over it in place,
   and the one copy is the string handed to [write]. A range with no
   record rows does nothing (no write, no fsync). The roll check runs once
   per batch, so a segment may overshoot its target by at most one
   batch. *)
let append_columns w c ~pos ~len =
  check_open w;
  let b = w.batch in
  Record.Buf.clear b;
  let n = ref 0 in
  for k = pos to pos + len - 1 do
    if Record.add_row b c k then incr n
  done;
  let n = !n in
  if n > 0 then begin
    let bytes = Record.Buf.length b in
    w.out.Io.write (Record.Buf.contents b);
    w.out.Io.flush ();
    Metrics.on_append_batch w.metrics ~records:n ~bytes;
    w.appended <- w.appended + n;
    w.active_count <- w.active_count + n;
    w.active_bytes <- w.active_bytes + bytes;
    w.crc <- Dvbp_tracestore.Crc32.update w.crc b.Record.Buf.bytes ~pos:0 ~len:bytes;
    Record.Buf.reset b ~cap:batch_retained;
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
    w.unsynced <- 0;
    if w.active_bytes >= w.segment_bytes then seal_active w
  end

(* the event-list form: the events become rows of the writer's own
   column set, then one column commit *)
let append_batch w events =
  check_open w;
  let c = w.rows in
  let n = List.length events in
  Record.ensure_rows c n;
  List.iteri (Record.set_event c) events;
  append_columns w c ~pos:0 ~len:n

let sync w =
  check_open w;
  Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
  w.unsynced <- 0

(* Drop everything: a snapshot absorbed the whole prefix. A fresh active
   segment with [base = new_base] is created and made durable {e before}
   the old files are unlinked, so a crash anywhere in between leaves a
   readable chain (the old active's end equals the new base, so both chain
   together until the removes land; a torn old active simply drops out as
   stale, its records covered by the snapshot). *)
let truncate w ~new_base =
  check_open w;
  if new_base < 0 then invalid_arg "journal base must be non-negative";
  Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
  w.out.Io.close ();
  let dir = Filename.dirname w.w_path in
  let old_active = Segment.name w.w_path ~idx:w.active_idx Segment.Active in
  let idx = w.active_idx + 1 in
  let out, hbytes = open_active ~io:w.io ~path:w.w_path ~idx ~base:new_base w.shape in
  w.io.Io.fsync_dir dir;
  Queue.iter (fun s -> w.io.Io.remove s.si_path) w.sealed;
  w.io.Io.remove old_active;
  w.io.Io.fsync_dir dir;
  Metrics.on_truncate w.metrics;
  w.out <- out;
  w.active_idx <- idx;
  w.active_base <- new_base;
  w.active_count <- 0;
  w.active_bytes <- hbytes;
  w.crc <- 0;
  Queue.clear w.sealed;
  w.sealed_bytes <- 0;
  w.unsynced <- 0;
  gauges w

(* Online compaction's disk-reclaim half: unlink sealed segments whose
   records all fall at or below [upto] (an event frontier some durable
   snapshot covers), oldest first so any crash leaves a contiguous
   suffix. Bounded by [max_segments] per call to keep event-loop ticks
   short. Returns the number retired. *)
let retire_sealed ?(max_segments = max_int) w ~upto =
  check_open w;
  let covered s = s.si_base + s.si_count <= upto in
  let rec remove n bytes =
    match Queue.peek_opt w.sealed with
    | Some s when n < max_segments && covered s ->
        w.io.Io.remove s.si_path;
        ignore (Queue.pop w.sealed);
        remove (n + 1) (bytes + s.si_bytes)
    | Some _ | None -> (n, bytes)
  in
  match remove 0 0 with
  | 0, _ -> 0
  | n, bytes ->
      w.io.Io.fsync_dir (Filename.dirname w.w_path);
      w.sealed_bytes <- w.sealed_bytes - bytes;
      Metrics.on_retire w.metrics ~segments:n ~bytes;
      gauges w;
      n

let close w =
  if not w.closed then begin
    Metrics.time_fsync w.metrics (fun () -> w.out.Io.fsync ());
    w.out.Io.close ();
    w.closed <- true
  end

let ( let* ) = Result.bind

let check_shape ~path (expected : header) (h : header) =
  if h.policy <> expected.policy then
    Error
      (Printf.sprintf "%s: journal was written by policy %s, not %s" path h.policy
         expected.policy)
  else if h.seed <> expected.seed then
    Error
      (Printf.sprintf "%s: journal was written with seed %d, not %d" path h.seed
         expected.seed)
  else if not (Vec.equal h.capacity expected.capacity) then
    Error
      (Printf.sprintf "%s: journal capacity %s does not match %s" path
         (Vec.to_string h.capacity)
         (Vec.to_string expected.capacity))
  else Ok ()

let encode_region events =
  let b = Record.Buf.create 4096 in
  List.iter (Record.add_record b) events;
  Record.Buf.contents b

let append_to ?(io = Real_io.v) ?metrics ?(fsync_every = 64)
    ?(segment_bytes = default_segment_bytes) ~path header =
  let metrics = match metrics with Some m -> m | None -> Metrics.noop () in
  validate_fsync_every fsync_every;
  validate_segment_bytes segment_bytes;
  let dir = Filename.dirname path in
  let fresh () =
    let w = create ~io ~metrics ~fsync_every ~segment_bytes ~path header in
    Ok (w, { header; events = []; dropped_torn = false; version = 2 })
  in
  let mk_writer =
    make_writer ~path ~io ~metrics ~fsync_every ~segment_bytes ~shape:header
  in
  if io.Io.file_exists path then begin
    (* Legacy single-file journal: validate, heal, then migrate it into one
       active segment — segment made durable, then the legacy file removed
       (and the removal dirsynced) before any new append, so at every crash
       point either the legacy file or a superset segment is authoritative,
       never neither. *)
    match io.Io.read_file path with
    | Error msg -> Error msg
    | Ok "" -> fresh ()
    | Ok text -> (
        match of_string text with
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
        | Ok r ->
            let* () = check_shape ~path header r.header in
            let unterminated = text.[String.length text - 1] <> '\n' in
            if r.dropped_torn || unterminated then Metrics.on_heal metrics;
            let hdr = Segment.header_string r.header in
            let region = encode_region r.events in
            let apath = Segment.name path ~idx:0 Segment.Active in
            let out = io.Io.open_out ~append:false apath in
            out.Io.write hdr;
            out.Io.write region;
            out.Io.fsync ();
            io.Io.fsync_dir dir;
            io.Io.remove path;
            io.Io.fsync_dir dir;
            Ok
              ( mk_writer ~out ~active_idx:0 ~active_base:r.header.base
                  ~active_count:(List.length r.events)
                  ~active_bytes:(String.length hdr + String.length region)
                  ~crc:(crc_add 0 region) ~sealed:[],
                r ))
  end
  else
    match Log.read ~io path with
    | Error msg -> Error msg
    | Ok None -> fresh ()
    | Ok (Some v) ->
        let* () = check_shape ~path header v.Log.v_header in
        (* directory maintenance before reopening: finish seals whose
           rename a crash rolled back, drop stale files the chain walk
           excluded (retire/truncate leftovers, crashed births) *)
        let sealed_path (s : Log.seg) =
          Segment.name path ~idx:s.Log.s_idx Segment.Sealed
        in
        List.iter
          (fun (s : Log.seg) -> io.Io.rename ~src:s.Log.s_path ~dst:(sealed_path s))
          v.Log.v_misnamed;
        List.iter (fun p -> io.Io.remove p) v.Log.v_stale;
        if v.Log.v_misnamed <> [] || v.Log.v_stale <> [] then io.Io.fsync_dir dir;
        let sealed =
          List.filter (fun (s : Log.seg) -> s.Log.s_sealed) v.Log.v_chain
          |> List.map (fun (s : Log.seg) ->
                 {
                   si_idx = s.Log.s_idx;
                   si_base = Log.s_base s;
                   si_count = s.Log.s_count;
                   si_bytes = s.Log.s_bytes;
                   si_path = sealed_path s;
                 })
        in
        let r = view_read v in
        (match v.Log.v_active with
        | Some a ->
            (* an unterminated tail must not stay on disk: appending after
               it would weld the fragment to the next record. Rewrite the
               active segment in place (atomically) when its tail was torn
               or merely missed its final newline. Sealed segments never
               take this path — a short read there was a hard error. *)
            let needs_heal = a.Log.s_dropped_torn || a.Log.s_unterminated in
            if needs_heal then Metrics.on_heal metrics;
            let hdr = Segment.header_string a.Log.s_header in
            let region =
              if needs_heal then begin
                let region = encode_region a.Log.s_events in
                Io.atomic_replace io ~path:a.Log.s_path (hdr ^ region);
                region
              end
              else a.Log.s_region
            in
            Ok
              ( mk_writer
                  ~out:(io.Io.open_out ~append:true a.Log.s_path)
                  ~active_idx:a.Log.s_idx ~active_base:(Log.s_base a)
                  ~active_count:a.Log.s_count
                  ~active_bytes:(String.length hdr + String.length region)
                  ~crc:(crc_add 0 region) ~sealed,
                r )
        | None ->
            (* every chain segment is sealed (or the directory only held
               sealed files): start a fresh active above the frontier *)
            let base = Log.frontier v in
            let out, hbytes =
              open_active ~io ~path ~idx:v.Log.v_next_idx ~base header
            in
            io.Io.fsync_dir dir;
            Ok
              ( mk_writer ~out ~active_idx:v.Log.v_next_idx ~active_base:base
                  ~active_count:0 ~active_bytes:hbytes ~crc:0 ~sealed,
                r ))
