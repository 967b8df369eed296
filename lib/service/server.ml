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

type t = {
  config : config;
  io : Io.t;
  tenants : (string, Session.t) Hashtbl.t;
  mutable tenant_order_rev : string list;
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

let register_tenant t tenant session =
  Hashtbl.add t.tenants tenant session;
  t.tenant_order_rev <- tenant :: t.tenant_order_rev;
  Metrics.attach_session t.obs ~tenant ~policy:t.config.policy session

let sessions t =
  List.rev_map (fun tn -> (tn, Hashtbl.find t.tenants tn)) t.tenant_order_rev

let make_t config ~io ~obs ~tenant_sessions journal ~history ~since_snapshot =
  let history_rev = List.rev history in
  let t =
    {
      config;
      io;
      tenants = Hashtbl.create 8;
      tenant_order_rev = [];
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
  List.iter (fun (tenant, session) -> register_tenant t tenant session) tenant_sessions;
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
      (fun () -> float_of_int (List.length t.tenant_order_rev));
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

let get_session t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> Ok s
  | None ->
      let* _ = Tenant.validate tenant in
      let* session =
        fresh_tenant_session ~policy:t.config.policy ~seed:t.config.seed
          ~capacity:t.config.capacity tenant
      in
      register_tenant t tenant session;
      Ok session

let session t =
  match Hashtbl.find_opt t.tenants Tenant.default with
  | Some s -> s
  | None -> invalid_arg "Server.session: no default tenant session"

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
   on the calling domain between runs. Within a run:

   + {e prep} (calling domain): parse each line, resolve its tenant
     session (creating it on first contact), pick its shard;
   + {e apply} (sharded over [config.jobs] domains via {!Dvbp_parallel}):
     each shard applies its lines in arrival order against its tenants'
     sessions and writes the outcome into that line's pre-assigned slot —
     a tenant's events all land on one shard ({!Tenant.shard}), so every
     per-tenant packing is bit-identical to [jobs = 1];
   + {e commit} (calling domain): walk outcomes in arrival order, append
     applied events to the journal in chunks of at most [fsync_every]
     records ({!Journal.append_batch}: one buffered write + one fsync per
     chunk), then account counters and release replies. *)

type prep =
  | P_none  (* reply already decided at prep (parse or tenant error) *)
  | P_arrive of {
      tenant : string;
      session : Session.t;
      time : float;
      item_id : int;
      size : Vec.t;
    }
  | P_depart of { tenant : string; session : Session.t; time : float; item_id : int }

type applied =
  | A_none
  | A_err of string  (* ERR reply computed by a worker (failed DEPART) *)
  | A_reject of string
  | A_placed of string * Journal.event
  | A_departed of Journal.event

let prep_shard = function
  | P_none -> 0
  | P_arrive { tenant; _ } | P_depart { tenant; _ } -> Tenant.hash tenant

let apply_prepped prep results k =
  match prep.(k) with
  | P_none -> ()
  | P_arrive { tenant; session; time; item_id; size } -> (
      match Session.arrive session ~at:time ~id:item_id ~size () with
      | exception Session.Session_error msg -> results.(k) <- A_reject msg
      | p ->
          results.(k) <-
            A_placed
              ( placed_reply p,
                Journal.Arrive
                  { tenant; time; item_id; size; bin_id = p.Session.bin_id;
                    opened_new_bin = p.Session.opened_new_bin } ))
  | P_depart { tenant; session; time; item_id } -> (
      match Session.depart session ~at:time ~item_id with
      | exception Session.Session_error msg -> results.(k) <- A_err msg
      | () -> results.(k) <- A_departed (Journal.Depart { tenant; time; item_id }))

let rec split_at n = function
  | [] -> ([], [])
  | rest when n <= 0 -> ([], rest)
  | x :: rest ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)

let flush_staged t staged_rev ~waiters =
  match (t.journal, staged_rev) with
  | None, _ | _, [] -> ()
  | Some w, _ ->
      Metrics.set_group_commit_waiters t.obs waiters;
      let commit events =
        Metrics.time_journal_append t.obs (fun () -> Journal.append_batch w events)
      in
      (* per-batch ceiling: one commit never spans more than fsync_every
         records (pinned in tests); a batch within it is committed whole *)
      let rec chunks events =
        if List.compare_length_with events t.config.fsync_every <= 0 then commit events
        else
          let chunk, rest = split_at t.config.fsync_every events in
          commit chunk;
          chunks rest
      in
      chunks (List.rev staged_rev);
      Metrics.set_group_commit_waiters t.obs 0

(* {3 Hot-path request scanner}

   [process_run] parses tens of thousands of well-formed ARRIVE/DEPART
   lines per second, so the common case avoids [tokenize]'s token list and
   the [parse_*] wrappers entirely: fields are scanned in place and ints
   are accumulated without allocating. Anything unusual — malformed
   numbers, sign prefixes, bad tenants, wrong arity — falls back to the
   tokenize-based parser so every error text and edge-case semantic stays
   identical to [handle_line]. *)

(* bounds of up to [Array.length starts] space-separated fields; -1 when
   there are more fields than slots (caller falls back) *)
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

let field_is line s e kw =
  e - s = String.length kw
  &&
  let ok = ref true in
  for j = 0 to e - s - 1 do
    if String.unsafe_get line (s + j) <> String.unsafe_get kw j then ok := false
  done;
  !ok

(* plain decimal int in [s, e); -1 on empty, non-digit or > 18 digits *)
let parse_uint line s e =
  if e <= s || e - s > 18 then -1
  else begin
    let v = ref 0 and ok = ref true in
    for j = s to e - 1 do
      let c = Char.code (String.unsafe_get line j) - 48 in
      if c < 0 || c > 9 then ok := false else v := (!v * 10) + c
    done;
    if !ok then !v else -1
  end

(* "10,20"-style size vector in [s, e); None on anything but plain
   decimal segments *)
let parse_sizes_fast line s e =
  if e <= s then None
  else begin
    let dims = ref 1 in
    for j = s to e - 1 do
      if String.unsafe_get line j = ',' then incr dims
    done;
    let arr = Array.make !dims 0 in
    let idx = ref 0 and v = ref 0 and len = ref 0 and ok = ref true in
    for j = s to e - 1 do
      let c = String.unsafe_get line j in
      if c = ',' then begin
        if !len = 0 || !len > 18 then ok := false;
        arr.(!idx) <- !v;
        incr idx;
        v := 0;
        len := 0
      end
      else
        let d = Char.code c - 48 in
        if d < 0 || d > 9 then ok := false
        else begin
          v := (!v * 10) + d;
          incr len
        end
    done;
    if !len = 0 || !len > 18 then ok := false else arr.(!idx) <- !v;
    if !ok then Some (Vec.of_array arr) else None
  end

let slow_parse t line =
  match tokenize line with
  | [ "ARRIVE"; time; id; sizes ] -> (
      match parse_arrive ~time ~id ~sizes () with
      | Ok (tenant, time, item_id, size) ->
          let* session = get_session t tenant in
          Ok (P_arrive { tenant; session; time; item_id; size })
      | Error _ as e -> e)
  | [ "ARRIVE"; tenant; time; id; sizes ] -> (
      match parse_arrive ~tenant ~time ~id ~sizes () with
      | Ok (tenant, time, item_id, size) ->
          let* session = get_session t tenant in
          Ok (P_arrive { tenant; session; time; item_id; size })
      | Error _ as e -> e)
  | "ARRIVE" :: _ -> Error arrive_usage
  | [ "DEPART"; time; id ] -> (
      match parse_depart ~time ~id () with
      | Ok (tenant, time, item_id) ->
          let* session = get_session t tenant in
          Ok (P_depart { tenant; session; time; item_id })
      | Error _ as e -> e)
  | [ "DEPART"; tenant; time; id ] -> (
      match parse_depart ~tenant ~time ~id () with
      | Ok (tenant, time, item_id) ->
          let* session = get_session t tenant in
          Ok (P_depart { tenant; session; time; item_id })
      | Error _ as e -> e)
  | "DEPART" :: _ -> Error depart_usage
  | _ -> Error "empty request"

let process_run t lines (replies : (string * bool) array) ~lo ~hi =
  let jobs = t.config.jobs in
  let run_t0 = Metrics.now t.obs in
  let n = hi - lo in
  let prep = Array.make n P_none in
  let arrives = ref 0 in
  let starts = Array.make 6 0 and stops = Array.make 6 0 in
  (* prep: parse + tenant resolution on the calling domain (session
     creation mutates the tenant table, which workers only read) *)
  for k = 0 to n - 1 do
    let line = lines.(lo + k) in
    t.requests <- t.requests + 1;
    let nf = scan_fields line starts stops in
    (* every line the caller routes here starts with ARRIVE or DEPART *)
    let arrive = nf > 0 && field_is line starts.(0) stops.(0) "ARRIVE" in
    if arrive then incr arrives;
    Metrics.on_request t.obs (if arrive then Metrics.Arrive else Metrics.Depart);
    let fast =
      (* tenant field present iff one extra token *)
      let want = if arrive then 4 else 3 in
      if nf <> want && nf <> want + 1 then None
      else begin
        let base = if nf = want then 1 else 2 in
        let tenant =
          if nf = want then Some Tenant.default
          else
            let s = String.sub line starts.(1) (stops.(1) - starts.(1)) in
            match Tenant.validate s with Ok tn -> Some tn | Error _ -> None
        in
        match tenant with
        | None -> None
        | Some tenant -> (
            let item_id = parse_uint line starts.(base + 1) stops.(base + 1) in
            if item_id < 0 then None
            else
              match
                float_of_string
                  (String.sub line starts.(base) (stops.(base) - starts.(base)))
              with
              | exception _ -> None
              | time when not (Float.is_finite time) -> None
              | time -> (
                  match get_session t tenant with
                  | Error _ -> None
                  | Ok session ->
                      if not arrive then
                        Some (Ok (P_depart { tenant; session; time; item_id }))
                      else
                        parse_sizes_fast line starts.(base + 2) stops.(base + 2)
                        |> Option.map (fun size ->
                               Ok (P_arrive { tenant; session; time; item_id; size }))))
      end
    in
    let parsed = match fast with Some p -> p | None -> slow_parse t line in
    match parsed with
    | Ok p -> prep.(k) <- p
    | Error msg -> replies.(lo + k) <- err t msg
  done;
  (* apply: shard by tenant, workers write disjoint slots *)
  let results = Array.make n A_none in
  if jobs <= 1 then
    for k = 0 to n - 1 do
      apply_prepped prep results k
    done
  else begin
    let buckets = Array.make jobs [] in
    for k = n - 1 downto 0 do
      match prep.(k) with
      | P_none -> ()
      | p ->
          let s = prep_shard p mod jobs in
          buckets.(s) <- k :: buckets.(s)
    done;
    ignore
      (Dvbp_parallel.Parallel.map_array ~jobs
         (fun idxs -> List.iter (fun k -> apply_prepped prep results k) idxs)
         buckets)
  end;
  (* commit: journal applied events in arrival order, then release *)
  let staged_rev = ref [] in
  for k = 0 to n - 1 do
    match results.(k) with
    | A_none -> ()
    | A_err msg -> replies.(lo + k) <- err t msg
    | A_reject msg ->
        t.rejections <- t.rejections + 1;
        replies.(lo + k) <- (Printf.sprintf "REJECT %s" msg, false)
    | A_placed (reply, e) ->
        t.placements <- t.placements + 1;
        staged_rev := e :: !staged_rev;
        t.history_rev <- e :: t.history_rev;
        t.events <- t.events + 1;
        t.since_snapshot <- t.since_snapshot + 1;
        replies.(lo + k) <- (reply, false)
    | A_departed e ->
        t.departures <- t.departures + 1;
        staged_rev := e :: !staged_rev;
        t.history_rev <- e :: t.history_rev;
        t.events <- t.events + 1;
        t.since_snapshot <- t.since_snapshot + 1;
        replies.(lo + k) <- ("OK", false)
  done;
  flush_staged t !staged_rev ~waiters:n;
  Metrics.set_compaction_lag t.obs t.since_snapshot;
  maybe_auto_snapshot t;
  if not (Metrics.is_noop t.obs) then begin
    (* batch latency: every line in the run waited for the same commit,
       so each observes the run's full prep+apply+commit wall time — one
       bulk bucket update per kind and per tenant, not one per line *)
    let seconds = Metrics.now t.obs -. run_t0 in
    let per_tenant = Hashtbl.create 8 in
    for k = 0 to n - 1 do
      match prep.(k) with
      | P_none -> ()
      | P_arrive { tenant; _ } | P_depart { tenant; _ } ->
          Hashtbl.replace per_tenant tenant
            (1 + Option.value (Hashtbl.find_opt per_tenant tenant) ~default:0)
    done;
    Metrics.observe_request_n t.obs Metrics.Arrive ~seconds !arrives;
    Metrics.observe_request_n t.obs Metrics.Depart ~seconds (n - !arrives);
    Hashtbl.iter
      (fun tenant k -> Metrics.observe_tenant_request_n t.obs ~tenant ~seconds k)
      per_tenant
  end

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
