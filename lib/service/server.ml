module Vec = Dvbp_vec.Vec
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session
module R = Dvbp_obs.Registry

type config = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  fsync_every : int;
  jobs : int;
  segment_bytes : int option;  (* journal segment roll threshold *)
  retain_segments : int option;  (* sealed-segment count that triggers compaction *)
}

type metrics = {
  requests : int;
  placements : int;
  rejections : int;
  departures : int;
  errors : int;
  snapshots : int;
  events : int;
}

(* Online compaction is a two-phase pass driven one bounded step at a time
   from the event loop: first snapshot the current frontier (making every
   record at or below it redundant), then retire covered sealed segments a
   few files per tick — group-commit acks never wait on a retire. *)
type compaction = C_idle | C_retiring of { frontier : int; started : float }

(* Tenants by index, in first-appearance order. The batch scanner
   resolves a tenant field where it lies in the request line: a hash over
   the field's bytes picks a slot of an open-addressed index and the name
   there is compared in place, so a known tenant costs no allocation. *)
type tenants = {
  mutable names : string array;
  mutable sessions : Session.t array;
  mutable shard : int array;  (* [Tenant.hash]: picks the tenant's worker *)
  mutable run_events : int array;  (* event requests in the current run *)
  mutable count : int;
  mutable slots : int array;  (* power-of-two length; [-1] empty, else an index *)
}

type t = {
  config : config;
  io : Io.t;
  tenants : tenants;
  cols : Record.columns;
      (* the run being handled, one row per line; a row's kind byte goes
         from ['a']/['d'] (parsed) to ['A']/['D'] (applied, journaled),
         ['R'] (arrival refused) or ['E'] (departure failed); [' '] marks
         a line answered while scanning *)
  mutable sizes : int array;  (* a plain size field's entries, reused *)
  starts : int array;  (* field bounds of the line being scanned *)
  stops : int array;
  journal : Journal.writer option;
  mutable compaction : compaction;
  mutable history_rev : Journal.event list;
  mutable events : int;
  mutable since_snapshot : int;
  mutable requests : int;
  mutable placements : int;
  mutable rejections : int;
  mutable departures : int;
  mutable errors : int;
  mutable snapshots : int;
  obs : Metrics.t;
  mutable closed : bool;
}

let ( let* ) = Result.bind

let validate_config c =
  let* () =
    if c.fsync_every < 1 then
      Error (Printf.sprintf "fsync-every must be >= 1, got %d" c.fsync_every)
    else Ok ()
  in
  let* () =
    if c.jobs < 1 then Error (Printf.sprintf "jobs must be >= 1, got %d" c.jobs)
    else Ok ()
  in
  let* () =
    match c.snapshot_every with
    | Some n when n < 1 -> Error (Printf.sprintf "snapshot-every must be >= 1, got %d" n)
    | Some _ when c.snapshot = None ->
        Error "snapshot-every requires a snapshot path"
    | Some _ when c.journal = None ->
        Error "snapshot-every requires a journal path (there is nothing to truncate)"
    | Some _ | None -> Ok ()
  in
  let* () =
    match c.segment_bytes with
    | Some n when n < 64 -> Error (Printf.sprintf "segment-bytes must be >= 64, got %d" n)
    | Some _ when c.journal = None ->
        Error "segment-bytes requires a journal path"
    | Some _ | None -> Ok ()
  in
  let* () =
    match c.retain_segments with
    | Some n when n < 0 ->
        Error (Printf.sprintf "retain-segments must be >= 0, got %d" n)
    | Some _ when c.snapshot = None ->
        Error "retain-segments requires a snapshot path (compaction snapshots first)"
    | Some _ when c.journal = None ->
        Error "retain-segments requires a journal path (there is nothing to retire)"
    | Some _ | None -> Ok ()
  in
  Ok ()

let hash_sub s pos len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

(* the index of the tenant named by [s.[pos .. pos+len)], or [-1] *)
let find_tenant tt s pos len =
  let mask = Array.length tt.slots - 1 in
  let i = ref (hash_sub s pos len land mask) in
  while
    let x = Array.unsafe_get tt.slots !i in
    x >= 0 && not (Record.same_sub s pos (pos + len) tt.names.(x))
  do
    i := (!i + 1) land mask
  done;
  Array.unsafe_get tt.slots !i

let insert_slot slots tt x =
  let name = tt.names.(x) and mask = Array.length slots - 1 in
  let i = ref (hash_sub name 0 (String.length name) land mask) in
  while slots.(!i) >= 0 do i := (!i + 1) land mask done;
  slots.(!i) <- x

let grow a x =
  let b = Array.make (max 8 (2 * Array.length a)) x in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_tenant tt name session =
  let x = tt.count in
  if x = Array.length tt.names then begin
    tt.names <- grow tt.names name;
    tt.sessions <- grow tt.sessions session;
    tt.shard <- grow tt.shard 0;
    tt.run_events <- grow tt.run_events 0
  end;
  tt.names.(x) <- name;
  tt.sessions.(x) <- session;
  tt.shard.(x) <- Tenant.hash name;
  tt.run_events.(x) <- 0;
  tt.count <- x + 1;
  (* at most half full *)
  if 2 * tt.count > Array.length tt.slots then begin
    let slots = Array.make (2 * Array.length tt.slots) (-1) in
    for y = 0 to tt.count - 1 do insert_slot slots tt y done;
    tt.slots <- slots
  end
  else insert_slot tt.slots tt x;
  x

let register_tenant t tenant session =
  let x = add_tenant t.tenants tenant session in
  Metrics.attach_session t.obs ~tenant ~policy:t.config.policy session;
  x

let sessions t =
  let tt = t.tenants in
  List.init tt.count (fun x -> (tt.names.(x), tt.sessions.(x)))

let make_t config ~io ~obs ~tenant_sessions journal ~history ~since_snapshot =
  let history_rev = List.rev history in
  let t =
    {
      config;
      io;
      tenants =
        { names = [||]; sessions = [||]; shard = [||]; run_events = [||]; count = 0;
          slots = Array.make 16 (-1) };
      cols = Record.columns 64;
      sizes = [||];
      starts = Array.make 6 0;
      stops = Array.make 6 0;
      journal;
      compaction = C_idle;
      history_rev;
      events = List.length history;
      since_snapshot;
      requests = 0;
      placements = 0;
      rejections = 0;
      departures = 0;
      errors = 0;
      snapshots = 0;
      obs;
      closed = false;
    }
  in
  List.iter (fun (tenant, session) -> ignore (register_tenant t tenant session : int))
    tenant_sessions;
  if not (Metrics.is_noop obs) then begin
    let reg = Metrics.registry obs in
    R.Counter.pull reg "dvbp_server_placements_total" ~help:"PLACED replies" (fun () ->
        t.placements);
    R.Counter.pull reg "dvbp_server_rejections_total" ~help:"REJECT replies" (fun () ->
        t.rejections);
    R.Counter.pull reg "dvbp_server_departures_total" ~help:"Successful DEPART requests"
      (fun () -> t.departures);
    R.Counter.pull reg "dvbp_server_errors_total" ~help:"ERR replies" (fun () -> t.errors);
    R.Counter.pull reg "dvbp_server_snapshots_total"
      ~help:"Snapshots taken by this process (manual and auto)" (fun () -> t.snapshots);
    R.Counter.pull reg "dvbp_server_events_total"
      ~help:"Applied events (placements + departures) since genesis, replayed included"
      (fun () -> t.events);
    R.Gauge.pull reg "dvbp_server_tenants" ~help:"Tenant sessions this server holds"
      (fun () -> float_of_int t.tenants.count);
    let start = Metrics.now obs in
    R.Gauge.pull reg "dvbp_server_uptime_seconds" ~help:"Wall time since this server started"
      (fun () -> Metrics.now obs -. start)
  end;
  t

let fresh_tenant_session ~policy ~seed ~capacity tenant =
  let* p = Policy.of_name ~rng:(Tenant.rng ~seed tenant) policy in
  Ok (Session.create ~record_trace:false ~capacity ~policy:p ())

let create ?(io = Real_io.v) ?metrics config =
  let obs = match metrics with Some m -> m | None -> Metrics.create () in
  let* () = validate_config config in
  let* session =
    fresh_tenant_session ~policy:config.policy ~seed:config.seed
      ~capacity:config.capacity Tenant.default
  in
  let* journal =
    match config.journal with
    | None -> Ok None
    | Some path -> (
        match
          Journal.create ~io ~metrics:obs ~fsync_every:config.fsync_every
            ?segment_bytes:config.segment_bytes ~path
            { Journal.policy = config.policy; seed = config.seed;
              capacity = config.capacity; base = 0 }
        with
        | w -> Ok (Some w)
        | exception Sys_error msg -> Error msg)
  in
  Ok
    (make_t config ~io ~obs
       ~tenant_sessions:[ (Tenant.default, session) ]
       journal ~history:[] ~since_snapshot:0)

let resume ?(io = Real_io.v) ?metrics config (st : Recovery.state) =
  let obs = match metrics with Some m -> m | None -> Metrics.create () in
  let* () = validate_config config in
  let* () =
    if st.Recovery.policy <> config.policy then
      Error
        (Printf.sprintf "recovered state was built by policy %s, config says %s"
           st.Recovery.policy config.policy)
    else if st.Recovery.seed <> config.seed then
      Error
        (Printf.sprintf "recovered state used seed %d, config says %d"
           st.Recovery.seed config.seed)
    else if not (Vec.equal st.Recovery.capacity config.capacity) then
      Error
        (Printf.sprintf "recovered capacity %s, config says %s"
           (Vec.to_string st.Recovery.capacity)
           (Vec.to_string config.capacity))
    else Ok ()
  in
  let* journal =
    match config.journal with
    | None -> Ok None
    | Some path ->
        let* w, r =
          Journal.append_to ~io ~metrics:obs ~fsync_every:config.fsync_every
            ?segment_bytes:config.segment_bytes ~path
            { Journal.policy = config.policy; seed = config.seed;
              capacity = config.capacity; base = 0 }
        in
        (* A crash between a snapshot's rename and the journal truncate
           leaves the snapshot ahead of the journal (both files durable,
           both valid). Appending to the stale journal would skip the
           events only the snapshot holds, so bring its base up to the
           recovered frontier first. *)
        let frontier = r.Journal.header.base + List.length r.Journal.events in
        let recovered = List.length st.Recovery.history in
        if frontier < recovered then Journal.truncate w ~new_base:recovered;
        Ok (Some w)
  in
  Ok
    (make_t config ~io ~obs ~tenant_sessions:st.Recovery.sessions journal
       ~history:st.Recovery.history ~since_snapshot:st.Recovery.from_journal)

let metrics t =
  {
    requests = t.requests;
    placements = t.placements;
    rejections = t.rejections;
    departures = t.departures;
    errors = t.errors;
    snapshots = t.snapshots;
    events = t.events;
  }

(* the tenant's index, its session created on first contact *)
let tenant_index t tenant =
  match find_tenant t.tenants tenant 0 (String.length tenant) with
  | -1 ->
      let* _ = Tenant.validate tenant in
      let* session =
        fresh_tenant_session ~policy:t.config.policy ~seed:t.config.seed
          ~capacity:t.config.capacity tenant
      in
      Ok (register_tenant t tenant session)
  | x -> Ok x

let get_session t tenant = Result.map (fun x -> t.tenants.sessions.(x)) (tenant_index t tenant)

let session t =
  match find_tenant t.tenants Tenant.default 0 (String.length Tenant.default) with
  | -1 -> invalid_arg "Server.session: no default tenant session"
  | x -> t.tenants.sessions.(x)

let observability t = t.obs
let latency_summary t = Metrics.request_summary t.obs

let stats_line t =
  (* The field list and order are a compatibility contract: scripts parse
     this line (regression-tested in test_service). The engine fields
     aggregate across tenants (sums; clock is the max). New telemetry goes
     to METRICS, not here. *)
  let lat = Metrics.request_summary t.obs in
  let lat_mean, lat_max =
    if lat.Dvbp_obs.Histogram.n = 0 then (0.0, 0.0)
    else (lat.Dvbp_obs.Histogram.mean *. 1e6, lat.Dvbp_obs.Histogram.max_v *. 1e6)
  in
  let open_bins, bins_opened, active_items, clock, cost =
    List.fold_left
      (fun (ob, bo, ai, clk, cost) (_, s) ->
        ( ob + List.length (Session.open_bins s),
          bo + Session.bins_opened s,
          ai + Session.active_items s,
          Float.max clk (Session.now s),
          cost +. Session.cost_so_far s ))
      (0, 0, 0, 0.0, 0.0) (sessions t)
  in
  Printf.sprintf
    "STATS requests=%d placements=%d rejections=%d departures=%d errors=%d \
     snapshots=%d events=%d open_bins=%d bins_opened=%d active_items=%d clock=%g \
     cost=%.4f latency_mean_us=%.1f latency_max_us=%.1f"
    t.requests t.placements t.rejections t.departures t.errors t.snapshots t.events
    open_bins bins_opened active_items clock cost lat_mean lat_max

let record t e =
  (match t.journal with
  | Some w -> Metrics.time_journal_append t.obs (fun () -> Journal.append w e)
  | None -> ());
  t.history_rev <- e :: t.history_rev;
  t.events <- t.events + 1;
  t.since_snapshot <- t.since_snapshot + 1;
  Metrics.set_compaction_lag t.obs t.since_snapshot

(* Write a durable snapshot of the whole current state at [path]. What
   happens to the journal afterwards is the caller's choice: the classic
   snapshot path truncates everything, compaction retires covered sealed
   segments while the active one keeps streaming. *)
let write_snapshot t path =
  Metrics.time_snapshot t.obs (fun () ->
      let digests =
        List.map
          (fun (tenant, session) -> Snapshot.digest_of_session ~tenant session)
          (sessions t)
      in
      Snapshot.write ~io:t.io ~path
        { Snapshot.policy = t.config.policy; seed = t.config.seed;
          capacity = t.config.capacity; digests;
          history = List.rev t.history_rev });
  t.since_snapshot <- 0;
  t.snapshots <- t.snapshots + 1;
  Metrics.set_compaction_lag t.obs 0

let take_snapshot t =
  match t.config.snapshot with
  | None -> Error "no snapshot path configured"
  | Some path ->
      write_snapshot t path;
      (match t.journal with
      | Some w -> Journal.truncate w ~new_base:t.events
      | None -> ());
      Ok path

let maybe_auto_snapshot t =
  match t.config.snapshot_every with
  | Some n when t.since_snapshot >= n -> (
      match take_snapshot t with
      | Ok _ -> ()
      | Error msg -> failwith msg (* excluded by validate_config *))
  | Some _ | None -> ()

(* {2 Online compaction}

   Driven by the event loop between select ticks: when the sealed-segment
   count exceeds [retain_segments], one step snapshots the frontier (every
   record at or below it is now redundant), and subsequent steps retire
   covered sealed segments a few files at a time. Each step is a bounded
   amount of work, so group-commit acks never queue behind a whole
   compaction pass. *)

let retire_batch = 4 (* sealed segments unlinked per step *)

let compaction_pending t =
  match t.compaction with
  | C_retiring _ -> true
  | C_idle -> (
      match (t.config.retain_segments, t.journal) with
      | Some retain, Some w -> Journal.sealed_segments w > retain
      | _ -> false)

let compaction_step t =
  match t.compaction with
  | C_retiring { frontier; started } -> (
      match t.journal with
      | None -> t.compaction <- C_idle
      | Some w ->
          let retired = Journal.retire_sealed ~max_segments:retire_batch w ~upto:frontier in
          if retired < retire_batch then begin
            (* nothing left at or below the frontier: the pass is done *)
            Metrics.on_compaction t.obs ~seconds:(Metrics.now t.obs -. started);
            t.compaction <- C_idle
          end)
  | C_idle when compaction_pending t -> (
      match t.config.snapshot with
      | None -> () (* excluded by validate_config *)
      | Some path ->
          write_snapshot t path;
          t.compaction <- C_retiring { frontier = t.events; started = Metrics.now t.obs })
  | C_idle -> ()

let compact t =
  match (t.config.snapshot, t.journal) with
  | None, _ -> Error "no snapshot path configured"
  | _, None -> Error "no journal configured"
  | Some path, Some w ->
      let started = Metrics.now t.obs in
      write_snapshot t path;
      let retired = Journal.retire_sealed w ~upto:t.events in
      Metrics.on_compaction t.obs ~seconds:(Metrics.now t.obs -. started);
      t.compaction <- C_idle;
      Ok (path, retired)

let parse_float what s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_sizes s =
  let fields = String.split_on_char ',' s in
  let rec go = function
    | [] -> Ok []
    | f :: rest ->
        let* x = parse_int "size entry" f in
        let* xs = go rest in
        Ok (x :: xs)
  in
  let* sizes = go fields in
  match sizes with
  | [] -> Error "empty size vector"
  | _ ->
      if List.exists (fun x -> x < 0) sizes then Error "negative size"
      else Ok (Vec.of_list sizes)

let err t msg =
  t.errors <- t.errors + 1;
  (Printf.sprintf "ERR %s" msg, false)

(* [PLACED <bin> <0|1>], written into one exactly-sized string *)
let placed_reply (p : Session.placement) =
  let bin = p.Session.bin_id in
  let w = Record.int_width bin in
  let b = Bytes.create (w + 9) in
  Bytes.blit_string "PLACED " 0 b 0 7;
  ignore (Record.put_int b 7 bin : int);
  Bytes.blit_string (if p.Session.opened_new_bin then " 1" else " 0") 0 b (w + 7) 2;
  Bytes.unsafe_to_string b

let handle_arrive t ~tenant ~time ~item_id ~size =
  match get_session t tenant with
  | Error msg -> err t msg
  | Ok session -> (
      match Session.arrive session ~at:time ~id:item_id ~size () with
      | exception Session.Session_error msg ->
          t.rejections <- t.rejections + 1;
          (Printf.sprintf "REJECT %s" msg, false)
      | p ->
          record t
            (Journal.Arrive
               { tenant; time; item_id; size; bin_id = p.Session.bin_id;
                 opened_new_bin = p.Session.opened_new_bin });
          t.placements <- t.placements + 1;
          maybe_auto_snapshot t;
          (placed_reply p, false))

let handle_depart t ~tenant ~time ~item_id =
  match get_session t tenant with
  | Error msg -> err t msg
  | Ok session -> (
      match Session.depart session ~at:time ~item_id with
      | exception Session.Session_error msg -> err t msg
      | () ->
          record t (Journal.Depart { tenant; time; item_id });
          t.departures <- t.departures + 1;
          maybe_auto_snapshot t;
          ("OK", false))

(* tolerate CRLF clients and stray blanks between fields *)
let tokenize line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let arrive_usage = "usage: ARRIVE [tenant] <t> <id> <s1,...,sd>"
let depart_usage = "usage: DEPART [tenant] <t> <id>"

(* Both grammars are told apart by token count: the tenant-prefixed form
   has one extra field, and tenant names never parse as timestamps (the
   charsets overlap only on digit strings, which are valid tenants but
   also valid times — token count, not content, decides). *)
let parse_arrive ?(tenant = Tenant.default) ~time ~id ~sizes () =
  let* tenant = Tenant.validate tenant in
  let* time = parse_float "timestamp" time in
  let* item_id = parse_int "item id" id in
  let* size = parse_sizes sizes in
  Ok (tenant, time, item_id, size)

let parse_depart ?(tenant = Tenant.default) ~time ~id () =
  let* tenant = Tenant.validate tenant in
  let* time = parse_float "timestamp" time in
  let* item_id = parse_int "item id" id in
  Ok (tenant, time, item_id)

let handle_line t line =
  t.requests <- t.requests + 1;
  Metrics.on_request t.obs (Metrics.kind_of_line line);
  match tokenize line with
  | [ "ARRIVE"; time; id; sizes ] -> (
      match parse_arrive ~time ~id ~sizes () with
      | Ok (tenant, time, item_id, size) -> handle_arrive t ~tenant ~time ~item_id ~size
      | Error msg -> err t msg)
  | [ "ARRIVE"; tenant; time; id; sizes ] -> (
      match parse_arrive ~tenant ~time ~id ~sizes () with
      | Ok (tenant, time, item_id, size) -> handle_arrive t ~tenant ~time ~item_id ~size
      | Error msg -> err t msg)
  | "ARRIVE" :: _ -> err t arrive_usage
  | [ "DEPART"; time; id ] -> (
      match parse_depart ~time ~id () with
      | Ok (tenant, time, item_id) -> handle_depart t ~tenant ~time ~item_id
      | Error msg -> err t msg)
  | [ "DEPART"; tenant; time; id ] -> (
      match parse_depart ~tenant ~time ~id () with
      | Ok (tenant, time, item_id) -> handle_depart t ~tenant ~time ~item_id
      | Error msg -> err t msg)
  | "DEPART" :: _ -> err t depart_usage
  | [ "STATS" ] -> (stats_line t, false)
  | [ "METRICS" ] -> (Metrics.render_text t.obs, false)
  | [ "SNAPSHOT" ] -> (
      match take_snapshot t with
      | Ok path -> (Printf.sprintf "OK snapshot %s events=%d" path t.events, false)
      | Error msg -> err t msg)
  | [ "QUIT" ] -> ("BYE", true)
  | [] -> err t "empty request"
  | cmd :: _ -> err t (Printf.sprintf "unknown command %S" cmd)

(* {2 Group-commit batch path}

   [handle_batch] is the event loop's entry point: it takes every line the
   loop drained this tick (arrival order across all connections) and
   returns one reply per line — {e after} journaling, so releasing the
   returned replies is always safe (batch-ack: an acked event is fsynced).

   The batch is processed as runs of event lines (ARRIVE/DEPART) broken by
   control lines (STATS, SNAPSHOT, ...), which are handled one at a time
   on the calling domain between runs. A run lives in columns the server
   owns and reuses from batch to batch ([t.cols], one row per line: kind,
   tenant index, time, item id, size vector, then outcome, bin id and
   new-bin flag), so no per-line variant or event is built on the way:

   + {e scan} (calling domain): one parser reads each line's fields in
     place into its row — an arrival's size vector is built here, once:
     the one the session keeps — resolves the tenant (creating it on
     first contact, once every field has parsed) and answers malformed
     lines;
   + {e apply} (sharded over [config.jobs] domains via {!Dvbp_parallel}):
     each shard walks the rows of its tenants in arrival order, calls the
     session and writes the outcome and reply into that row's slots — a
     tenant's rows all land on one shard ({!Tenant.shard}), so every
     per-tenant packing is bit-identical to [jobs = 1];
   + {e commit} (calling domain): walk the rows in arrival order to count
     outcomes and extend the history, then journal the applied rows
     straight from the columns in chunks of at most [fsync_every] records
     ({!Journal.append_columns}: one buffered write + one fsync per
     chunk). *)

let ok_reply = ("OK", false)

(* {3 The request scanner}

   Fields are found in place ([scan_fields]) and read straight into the
   row: plain decimal ints, [digits[.digits]] times and [d,d,...] sizes
   without a token list or a substring. A field the scanner does not read
   in one pass (a sign, an exponent, an overlong number, a bad tenant)
   goes to [parse_int], [parse_float], [parse_sizes] or [Tenant.validate]
   on that field's substring, so values, error texts and their order are
   exactly [handle_line]'s. Each reader returns [""] or the error
   message. *)

(* bounds of up to [Array.length starts] space-separated fields; -1 when
   there are more fields than slots *)
let scan_fields line (starts : int array) (stops : int array) =
  let n = String.length line in
  let n = if n > 0 && String.unsafe_get line (n - 1) = '\r' then n - 1 else n in
  let max_fields = Array.length starts in
  let count = ref 0 in
  let i = ref 0 in
  while !i < n && !count < max_fields do
    while !i < n && String.unsafe_get line !i = ' ' do incr i done;
    if !i < n then begin
      starts.(!count) <- !i;
      while !i < n && String.unsafe_get line !i <> ' ' do incr i done;
      stops.(!count) <- !i;
      incr count
    end
  done;
  while !i < n && String.unsafe_get line !i = ' ' do incr i done;
  if !i < n then -1 else !count

(* 10^k for k <= 22: every one is an exact double *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* [digits[.digits]] in [s, e) with at most 15 significant digits and at
   most 22 after the point, written to [dst.(k)]; false for any other
   spelling. The digit string [m] (< 10^15 < 2^53) and [10^f] are both
   exact doubles, so [m /. 10^f] is the correctly rounded value of the
   decimal: bit-identical to [float_of_string]. *)
let decimal_into (dst : float array) k line s e =
  let m = ref 0 and digits = ref 0 and frac = ref (-1) and ok = ref (e > s) and j = ref s in
  while !ok && !j < e do
    let c = String.unsafe_get line !j in
    if c = '.' then begin
      if !frac >= 0 || !j = s || !j = e - 1 then ok := false else frac := 0
    end
    else begin
      let d = Char.code c - 48 in
      if d < 0 || d > 9 then ok := false
      else begin
        if !m > 0 || d > 0 then incr digits;
        m := (!m * 10) + d;
        if !frac >= 0 then incr frac
      end
    end;
    incr j
  done;
  !ok && !digits <= 15 && !frac <= 22
  && begin
       dst.(k) <- (if !frac <= 0 then float_of_int !m else float_of_int !m /. pow10.(!frac));
       true
     end

let decimal_time s =
  let a = [| 0.0 |] in
  if decimal_into a 0 s 0 (String.length s) then Some a.(0) else None

let time_field c k line s e =
  if decimal_into c.Record.time k line s e then ""
  else
    match parse_float "timestamp" (String.sub line s (e - s)) with
    | Ok x ->
        c.Record.time.(k) <- x;
        ""
    | Error msg -> msg

let item_field c k line s e =
  let v = Record.plain_int line s e in
  if v <> min_int then begin
    c.Record.item.(k) <- v;
    ""
  end
  else
    match parse_int "item id" (String.sub line s (e - s)) with
    | Ok x ->
        c.Record.item.(k) <- x;
        ""
    | Error msg -> msg

(* entries in a plain [d,d,...] size field (one or more decimal segments
   of at most 18 digits); -1 for any other spelling *)
let plain_dims line s e =
  let len = ref 0 and dims = ref 1 and j = ref s in
  while !dims > 0 && !j < e do
    let c = String.unsafe_get line !j in
    if c = ',' then begin
      if !len = 0 then dims := -1 else incr dims;
      len := 0
    end
    else if c >= '0' && c <= '9' && !len < 18 then incr len
    else dims := -1;
    incr j
  done;
  if !len = 0 then -1 else !dims

(* A plain size field is read into [t.sizes] (reused while the dimension
   holds) and [Vec.of_array] copies it once, into the vector the session
   keeps; any other spelling goes to [parse_sizes]. *)
let sizes_field t k line s e =
  let dims = if e > s then plain_dims line s e else -1 in
  if dims > 0 then begin
    if Array.length t.sizes <> dims then t.sizes <- Array.make dims 0;
    let a = t.sizes and d = ref 0 and v = ref 0 in
    for i = s to e - 1 do
      let c = String.unsafe_get line i in
      if c = ',' then begin
        a.(!d) <- !v;
        incr d;
        v := 0
      end
      else v := (!v * 10) + Char.code c - 48
    done;
    a.(!d) <- !v;
    t.cols.Record.size.(k) <- Vec.of_array a;
    ""
  end
  else
    match parse_sizes (String.sub line s (e - s)) with
    | Ok v ->
        t.cols.Record.size.(k) <- v;
        ""
    | Error msg -> msg

(* the tenant field at [s, e) ([s < 0]: the default tenant) into row [k],
   created on first contact *)
let tenant_field t k line s e =
  let found x =
    t.cols.Record.tenant.(k) <- x;
    t.tenants.run_events.(x) <- t.tenants.run_events.(x) + 1;
    ""
  in
  let x =
    if s < 0 then find_tenant t.tenants Tenant.default 0 (String.length Tenant.default)
    else find_tenant t.tenants line s (e - s)
  in
  if x >= 0 then found x
  else
    match tenant_index t (if s < 0 then Tenant.default else String.sub line s (e - s)) with
    | Ok x -> found x
    | Error msg -> msg

(* ARRIVE [tenant] <t> <id> <sizes> or DEPART [tenant] <t> <id>, [named]
   when the tenant is given: the fields in order, then the tenant *)
let scan_fields_of t k line ~arrive ~named =
  let st = t.starts and sp = t.stops and c = t.cols in
  let f = if named then 2 else 1 in
  let err =
    if named && not (Tenant.valid_sub line ~pos:st.(1) ~len:(sp.(1) - st.(1))) then
      match Tenant.validate (String.sub line st.(1) (sp.(1) - st.(1))) with
      | Error msg -> msg
      | Ok _ -> assert false
    else
      let err = time_field c k line st.(f) sp.(f) in
      if err <> "" then err
      else
        let err = item_field c k line st.(f + 1) sp.(f + 1) in
        if err <> "" then err
        else
          let err = if arrive then sizes_field t k line st.(f + 2) sp.(f + 2) else "" in
          if err <> "" then err
          else tenant_field t k line (if named then st.(1) else -1) sp.(1)
  in
  if err = "" then Bytes.unsafe_set c.Record.kind k (if arrive then 'a' else 'd');
  err

(* Row [k] from [line]: kind ['a'] or ['d'] and its fields, or [""] kind
   [' '] and the ERR message. Token count tells the two grammars apart,
   as in [handle_line]. *)
let scan_event t k line =
  Bytes.unsafe_set t.cols.Record.kind k ' ';
  let st = t.starts and sp = t.stops in
  let nf = scan_fields line st sp in
  if nf = 0 then "empty request"
  else if Record.same_sub line st.(0) sp.(0) "ARRIVE" then
    if nf = 4 || nf = 5 then scan_fields_of t k line ~arrive:true ~named:(nf = 5)
    else arrive_usage
  else if Record.same_sub line st.(0) sp.(0) "DEPART" then
    if nf = 3 || nf = 4 then scan_fields_of t k line ~arrive:false ~named:(nf = 4)
    else depart_usage
  else Printf.sprintf "unknown command %S" (String.sub line st.(0) (sp.(0) - st.(0)))

(* {3 Apply} *)

let apply_row t lo (replies : (string * bool) array) k =
  let c = t.cols in
  match Bytes.unsafe_get c.Record.kind k with
  | 'a' -> (
      let size = c.Record.size.(k) in
      let session = t.tenants.sessions.(c.Record.tenant.(k)) in
      match Session.arrive session ~at:c.Record.time.(k) ~id:c.Record.item.(k) ~size () with
      | exception Session.Session_error msg ->
          Bytes.unsafe_set c.Record.kind k 'R';
          replies.(lo + k) <- (Printf.sprintf "REJECT %s" msg, false)
      | p ->
          Bytes.unsafe_set c.Record.kind k 'A';
          c.Record.bin.(k) <- p.Session.bin_id;
          Bytes.unsafe_set c.Record.fresh k (if p.Session.opened_new_bin then '1' else '0');
          replies.(lo + k) <- (placed_reply p, false))
  | 'd' -> (
      let session = t.tenants.sessions.(c.Record.tenant.(k)) in
      match Session.depart session ~at:c.Record.time.(k) ~item_id:c.Record.item.(k) with
      | exception Session.Session_error msg ->
          Bytes.unsafe_set c.Record.kind k 'E';
          replies.(lo + k) <- (Printf.sprintf "ERR %s" msg, false)
      | () ->
          Bytes.unsafe_set c.Record.kind k 'D';
          replies.(lo + k) <- ok_reply)
  | _ -> ()

(* {3 Commit} *)

let is_record kind = kind = 'A' || kind = 'D'

(* journal the record rows of [0, n), [records] of them, in chunks of at
   most [fsync_every] records — the per-batch ceiling (pinned in tests);
   a run within it is committed whole *)
let commit_rows t n ~records =
  match t.journal with
  | Some w when records > 0 ->
      let c = t.cols in
      c.Record.names <- t.tenants.names;
      Metrics.set_group_commit_waiters t.obs n;
      let lo = ref 0 in
      while !lo < n do
        let hi = ref !lo and chunk = ref 0 in
        while !hi < n && !chunk < t.config.fsync_every do
          if is_record (Bytes.unsafe_get c.Record.kind !hi) then incr chunk;
          incr hi
        done;
        if !chunk > 0 then begin
          let pos = !lo and len = !hi - !lo in
          Metrics.time_journal_append t.obs (fun () -> Journal.append_columns w c ~pos ~len)
        end;
        lo := !hi
      done;
      Metrics.set_group_commit_waiters t.obs 0
  | Some _ | None -> ()

let process_run t lines (replies : (string * bool) array) ~lo ~hi =
  let jobs = t.config.jobs in
  let run_t0 = Metrics.now t.obs in
  let n = hi - lo in
  let c = t.cols in
  Record.ensure_rows c n;
  (* scan: parse + tenant resolution on the calling domain (tenant
     creation mutates the tenant table, which workers only read) *)
  let arrives = ref 0 in
  for k = 0 to n - 1 do
    let line = lines.(lo + k) in
    t.requests <- t.requests + 1;
    let kind = Metrics.kind_of_line line in
    if kind = Metrics.Arrive then incr arrives;
    Metrics.on_request t.obs kind;
    match scan_event t k line with "" -> () | msg -> replies.(lo + k) <- err t msg
  done;
  (* apply: shard by tenant, workers write disjoint rows and slots *)
  if jobs <= 1 then begin
    for k = 0 to n - 1 do
      apply_row t lo replies k
    done
  end
  else begin
    let shard = t.tenants.shard in
    ignore
      (Dvbp_parallel.Parallel.map_array ~jobs
         (fun s ->
           for k = 0 to n - 1 do
             match Bytes.unsafe_get c.Record.kind k with
             | ('a' | 'd') when shard.(c.Record.tenant.(k)) mod jobs = s ->
                 apply_row t lo replies k
             | _ -> ()
           done)
         (Array.init jobs Fun.id))
  end;
  (* commit: count outcomes and extend the history in arrival order, then
     journal the applied rows; replies are released by the caller *)
  let placed = ref 0 and departed = ref 0 and history = ref t.history_rev in
  let names = t.tenants.names in
  for k = 0 to n - 1 do
    match Bytes.unsafe_get c.Record.kind k with
    | 'A' ->
        incr placed;
        history :=
          Journal.Arrive
            { tenant = names.(c.Record.tenant.(k)); time = c.Record.time.(k);
              item_id = c.Record.item.(k); size = c.Record.size.(k);
              bin_id = c.Record.bin.(k);
              opened_new_bin = Bytes.unsafe_get c.Record.fresh k = '1' }
          :: !history
    | 'D' ->
        incr departed;
        history :=
          Journal.Depart
            { tenant = names.(c.Record.tenant.(k)); time = c.Record.time.(k);
              item_id = c.Record.item.(k) }
          :: !history
    | 'R' -> t.rejections <- t.rejections + 1
    | 'E' -> t.errors <- t.errors + 1
    | _ -> ()
  done;
  let records = !placed + !departed in
  t.placements <- t.placements + !placed;
  t.departures <- t.departures + !departed;
  t.history_rev <- !history;
  t.events <- t.events + records;
  t.since_snapshot <- t.since_snapshot + records;
  commit_rows t n ~records;
  Metrics.set_compaction_lag t.obs t.since_snapshot;
  maybe_auto_snapshot t;
  (* batch latency: every line in the run waited for the same commit, so
     each observes the run's full scan+apply+commit wall time — one bulk
     bucket update per kind and per tenant, not one per line *)
  let tt = t.tenants in
  if not (Metrics.is_noop t.obs) then begin
    let seconds = Metrics.now t.obs -. run_t0 in
    Metrics.observe_request_n t.obs Metrics.Arrive ~seconds !arrives;
    Metrics.observe_request_n t.obs Metrics.Depart ~seconds (n - !arrives);
    for x = 0 to tt.count - 1 do
      Metrics.observe_tenant_request_n t.obs ~tenant:tt.names.(x) ~seconds tt.run_events.(x)
    done
  end;
  Array.fill tt.run_events 0 tt.count 0

let is_event_line line =
  match Metrics.kind_of_line line with
  | Metrics.Arrive | Metrics.Depart -> true
  | _ -> false

let handle_batch t lines =
  let n = Array.length lines in
  let replies = Array.make n ("", false) in
  let i = ref 0 in
  while !i < n do
    if is_event_line lines.(!i) then begin
      let j = ref !i in
      while !j < n && is_event_line lines.(!j) do incr j done;
      process_run t lines replies ~lo:!i ~hi:!j;
      i := !j
    end
    else begin
      (* control lines run between commits, so SNAPSHOT always sees every
         staged record flushed *)
      let t0 = Metrics.now t.obs in
      let kind = Metrics.kind_of_line lines.(!i) in
      replies.(!i) <- handle_line t lines.(!i);
      Metrics.observe_request t.obs kind ~seconds:(Metrics.now t.obs -. t0);
      incr i
    end
  done;
  replies

let close t =
  if not t.closed then begin
    (match t.journal with Some w -> Journal.close w | None -> ());
    t.closed <- true
  end

let serve t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let kind = Metrics.kind_of_line line in
        let t0 = Metrics.now t.obs in
        let reply, quit = handle_line t line in
        Metrics.observe_request t.obs kind ~seconds:(Metrics.now t.obs -. t0);
        output_string oc reply;
        output_char oc '\n';
        flush oc;
        (* the event loop steps compaction between select ticks; the
           blocking loop's equivalent beat is one step per request *)
        compaction_step t;
        if not quit then loop ()
  in
  Fun.protect ~finally:(fun () -> close t) loop
