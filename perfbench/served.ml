(* [served]: the online placement service under an open loop.

   Two tenants each own one socketpair to an in-process [Event_loop]
   server running on its own domain; one generator thread sends on a fixed
   seeded schedule and times every request from its scheduled send time,
   so a stall is charged to every request it delays. The journal is on
   disk with group commit; segment roll plus [retain_segments] make online
   compaction run several cycles. Phases: saturation bursts on fresh
   servers (see [saturate]); [light] at 5,000 events/s and [heavy] at
   50,000 events/s on the durable server, which is then closed and
   rebuilt by [Recovery.recover] from the files it left; a ladder of
   rising rates on a fresh server. Replies are checked against shadow
   sessions only after the timed window, so verification never slows
   the sender.

   The traced run adds the stage ladder: the heavy phase's requests, in
   the batches the server formed, go through cumulative stages
   (Session.apply, + Journal.encode_event, + Journal.append_batch without
   fsync, + fsync, Server.handle_batch, the socket Event_loop), and each
   stage's ns/event and the delta it adds are the service's per-layer
   costs. *)

open Common
module Report = Perfbench_lib.Report
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans
module Clock = Perfbench_lib.Clock
module Calib = Perfbench_lib.Calib
module Rng = Dvbp_prelude.Rng
module Policy = Dvbp_core.Policy
module Bounds = Dvbp_lowerbound.Bounds
module S = Dvbp_service
module Prom = Dvbp_obs.Prom

let tenants = [| "t0"; "t1" |]
let policy = "mtf"
let live_per_tenant = 32

(* one arrival every [dt] time units per tenant: with 32 items live, an
   item lives 10 time units on average — the mu = 10 of Table 2 *)
let dt = 10.0 /. float_of_int live_per_tenant
let bin_size = 100
let capacity = Vec.of_list [ bin_size; bin_size ]
let limit_ms = 5.0
let segment_bytes = 1 lsl 19
let retain_segments = 2

(* The generator shares the process (and the machine) with the server, so
   a stop-the-world collection or a preempted core pauses both; requests
   due meanwhile go out late, all at once, and their latency still counts
   from the schedule. A generator that fell behind is late on most
   requests, not on a few: the run is invalid when the median start
   lateness of any phase exceeds this. *)
let late_limit_ms = 1.0

type segment = {
  label : string;
  rate : float;  (** offered events per second *)
  duration : float;
  first : int;  (** global index of its first request *)
  count : int;
}

let light_rate = 5_000.0
let heavy_rate = 50_000.0

(* 41% apart: each rung doubles the rate of the one two below it *)
let ladder_rates = List.init 12 (fun i -> 2_500.0 *. (sqrt 2.0 ** float_of_int i))

(* [count] requests at [rate]; an infinite rate makes them all due at
   once, so the generator writes as fast as the server reads *)
let segments specs =
  let first = ref 0 in
  List.map
    (fun (label, rate, count) ->
      let s = { label; rate; duration = float_of_int count /. rate; first = !first; count } in
      first := !first + count;
      s)
    specs
  |> Array.of_list

let at rate seconds = int_of_float (Float.round (rate *. seconds))

(* Durations scale with [--seconds] up to 20 s: 3 s light, 4 s heavy and
   1 s per ladder rung. The durable server keeps every item and every
   snapshot it took until the run ends, so longer phases would only grow
   the heap, and with it how much the peak depends on when a collection
   ran; a longer run adds saturation bursts instead. *)
let phase_scale ~seconds = Float.min seconds 20.0 /. 20.0

let durable_plan ~seconds =
  let f = phase_scale ~seconds in
  segments
    [ ("light", light_rate, at light_rate (3.0 *. f)); ("heavy", heavy_rate, at heavy_rate (4.0 *. f)) ]

(* a fixed burst size: each burst's server keeps every item it placed,
   so a burst that grew with [--seconds] would grow the heap with it *)
let saturation_requests = 112_500

let ladder_plan ~seconds =
  let f = phase_scale ~seconds in
  segments (List.map (fun r -> (Printf.sprintf "ladder.%.0fk" (r /. 1e3), r, at r f)) ladder_rates)

(* bursts, each on a fresh server, one per two seconds of the run; the
   median is reported *)
let saturation_bursts ~seconds = max 5 (int_of_float (Float.round (seconds /. 2.0)))

let saturation_plan = segments [ ("saturation", infinity, saturation_requests) ]

(* {1 Requests} *)

(* One tenant's event stream: [live_per_tenant] arrivals, then
   alternately the departure of a random live item and a fresh arrival at
   the same instant, so the live count stays constant. *)
(* Requests live outside the OCaml heap (bigarrays, bytes and float
   arrays, which the collector never scans), so the generator's inputs do
   not add to the marking work of the server it shares the process with. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

type stream = {
  kind : Bytes.t;  (** ['A'] arrival, ['D'] departure *)
  id : ints;
  time : float array;
  s1 : ints;  (** size, first dimension (0 on departures) *)
  s2 : ints;
  bytes : Bytes.t;  (** every request line, newline-terminated *)
  off : ints;  (** request [j] is [bytes.[off.{j} .. off.{j+1})] *)
}

let length s = Bytes.length s.kind
let arrive s j = Bytes.get s.kind j = 'A'
let size s j = Vec.of_list [ s.s1.{j}; s.s2.{j} ]

let make_stream ~rng ~tenant n =
  let kind = Bytes.make n 'D' and id = ints n and time = Array.make n 0.0 in
  let s1 = ints n and s2 = ints n in
  let live = Array.make live_per_tenant 0 and nlive = ref 0 in
  let arrivals = ref 0 in
  let buf = Buffer.create (n * 32) and off = ints (n + 1) in
  for j = 0 to n - 1 do
    let t = float_of_int !arrivals *. dt in
    time.(j) <- t;
    if !nlive = live_per_tenant && (j = 0 || Bytes.get kind (j - 1) = 'A') then begin
      let k = Rng.int rng !nlive in
      id.{j} <- live.(k);
      live.(k) <- live.(!nlive - 1);
      decr nlive;
      Printf.bprintf buf "DEPART %s %.4f %d\n" tenant t id.{j}
    end
    else begin
      Bytes.set kind j 'A';
      id.{j} <- !arrivals;
      s1.{j} <- Rng.int_incl rng ~lo:1 ~hi:bin_size;
      s2.{j} <- Rng.int_incl rng ~lo:1 ~hi:bin_size;
      live.(!nlive) <- !arrivals;
      incr nlive;
      incr arrivals;
      Printf.bprintf buf "ARRIVE %s %.4f %d %d,%d\n" tenant t id.{j} s1.{j} s2.{j}
    end;
    off.{j + 1} <- Buffer.length buf
  done;
  { kind; id; time; s1; s2; bytes = Buffer.to_bytes buf; off }

type requests = {
  segments : segment array;
  sched : float array;  (** send time, seconds after its segment starts *)
  tenant : ints;  (** per global request *)
  local : ints;  (** index within its tenant's stream *)
  streams : stream array;
  global : ints array;  (** per tenant: local index -> global index *)
}

let generate ~seed ~key segments =
  let last = segments.(Array.length segments - 1) in
  let n = last.first + last.count in
  let rng = Rng.split (Rng.create ~seed) ~key in
  let pick = Rng.split rng ~key:0 in
  let sched = Array.make n 0.0 and tenant = ints n and local = ints n in
  let counts = Array.make (Array.length tenants) 0 in
  Array.iter
    (fun s ->
      for k = 0 to s.count - 1 do
        let g = s.first + k in
        sched.(g) <- (if Float.is_finite s.rate then float_of_int k /. s.rate else 0.0);
        let t = Rng.int pick (Array.length tenants) in
        tenant.{g} <- t;
        local.{g} <- counts.(t);
        counts.(t) <- counts.(t) + 1
      done)
    segments;
  let streams =
    Array.mapi
      (fun t name -> make_stream ~rng:(Rng.split rng ~key:(t + 1)) ~tenant:name counts.(t))
      tenants
  in
  let global = Array.map ints counts in
  for g = 0 to n - 1 do
    global.(tenant.{g}).{local.{g}} <- g
  done;
  { segments; sched; tenant; local; streams; global }

let line (s : stream) j = Bytes.sub_string s.bytes s.off.{j} (s.off.{j + 1} - s.off.{j} - 1)

(* {1 Disk accounting}

   The server's file I/O goes through an [Io.t]; wrapping the real backend
   counts every byte written (journal records, segment footers,
   snapshots) and times every fsync, without touching the service. *)

type disk = {
  mutable bytes : int;
  mutable snapshots : int;
  mutable snapshot_bytes_max : int;
  mutable fsyncs : int;
  fsync_s : float array;  (** the first [Array.length fsync_s] fsyncs *)
}

let new_disk () =
  { bytes = 0; snapshots = 0; snapshot_bytes_max = 0; fsyncs = 0; fsync_s = Array.make (1 lsl 20) 0.0 }

(* [fsync]: [`Real] times the real call, [`Skip] only pushes the bytes to
   the OS (the "append without fsync" stage) *)
let counting_io ?(fsync = `Real) disk =
  let real = S.Real_io.v in
  let open_out ~append path =
    let o = real.S.Io.open_out ~append path in
    let is_snapshot = Filename.check_suffix path ".snap.tmp" in
    let written = ref 0 in
    {
      S.Io.write =
        (fun s ->
          disk.bytes <- disk.bytes + String.length s;
          written := !written + String.length s;
          o.S.Io.write s);
      flush = o.S.Io.flush;
      fsync =
        (match fsync with
        | `Skip -> o.S.Io.flush
        | `Real ->
            fun () ->
              let t0 = Clock.now () in
              o.S.Io.fsync ();
              if disk.fsyncs < Array.length disk.fsync_s then
                disk.fsync_s.(disk.fsyncs) <- Clock.now () -. t0;
              disk.fsyncs <- disk.fsyncs + 1);
      close =
        (fun () ->
          if is_snapshot then begin
            disk.snapshots <- disk.snapshots + 1;
            disk.snapshot_bytes_max <- max disk.snapshot_bytes_max !written
          end;
          o.S.Io.close ());
    }
  in
  { real with S.Io.open_out }

let server_config ~dir ~seed ~compaction =
  {
    S.Server.policy;
    seed;
    capacity;
    journal = Some (Filename.concat dir "j.log");
    snapshot = Some (Filename.concat dir "state.snap");
    snapshot_every = None;
    fsync_every = 1 lsl 20;
    jobs = 1;
    segment_bytes = Some segment_bytes;
    retain_segments = (if compaction then Some retain_segments else None);
  }

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let socketpair () = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0

(* An [Event_loop] server on its own domain, one connection per tenant. *)
let start_server server =
  let pairs = Array.map (fun _ -> socketpair ()) tenants in
  let conns = Array.to_list (Array.map snd pairs) in
  let domain = Domain.spawn (fun () -> S.Event_loop.serve ~conns server) in
  (Array.map fst pairs, domain)

(* {1 The open loop} *)

type run = {
  seg_start : float array;
  attempt : float array;  (** when the generator first found the request due *)
  recv : float array;  (** when its reply arrived *)
  replies : Buffer.t array;  (** raw reply bytes per tenant *)
  backlog : (float * float) array array;  (** per segment: (time, due - answered) *)
  segments_run : int;  (** segments sent; the ladder stops at its first failure *)
  complete : bool;  (** every sent request was answered *)
}

let backlog_interval = 1e-3
let drain_timeout = 30.0

(* Sends [q]'s segments on schedule over [fds] (one per tenant), reading
   replies as they come. Each segment starts once every earlier request
   has been answered; [continue_after run si] is asked once segment
   [si]'s replies are all in. *)
let drive ?(continue_after = fun _ _ -> true) (q : requests) fds =
  let n = Array.length q.sched in
  let nt = Array.length tenants in
  let attempt = Array.make n nan and recv = Array.make n nan in
  let nseg = Array.length q.segments in
  let seg_start = Array.make nseg nan in
  let due = Array.make nt 0 and written = Array.make nt 0 and answered = Array.make nt 0 in
  (* sized up front: growing a buffer mid-run copies megabytes *)
  let replies =
    Array.init nt (fun t -> Buffer.create (16 * (length q.streams.(t) + 1)))
  in
  let rbuf = Bytes.create 65536 in
  Array.iter Unix.set_nonblock fds;
  let flush_writes () =
    for t = 0 to nt - 1 do
      let target = q.streams.(t).off.{due.(t)} in
      if written.(t) < target then
        match Unix.single_write fds.(t) q.streams.(t).bytes written.(t) (target - written.(t)) with
        | k -> written.(t) <- written.(t) + k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    done
  in
  let read_replies t =
    match Unix.read fds.(t) rbuf 0 (Bytes.length rbuf) with
    | 0 -> ()
    | k ->
        let now = Clock.now () in
        for i = 0 to k - 1 do
          if Bytes.unsafe_get rbuf i = '\n' then begin
            recv.(q.global.(t).{answered.(t)}) <- now;
            answered.(t) <- answered.(t) + 1
          end
        done;
        Buffer.add_subbytes replies.(t) rbuf 0 k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let outstanding () =
    let o = ref 0 in
    for t = 0 to nt - 1 do
      o := !o + due.(t) - answered.(t)
    done;
    !o
  in
  let fd_list = Array.to_list fds in
  (* Sleeps until a reply arrives, a blocked write can proceed, or
     [timeout] passes, then serves whichever it was. The generator never
     spins: on two cores a busy-waiting sender would take the CPU the
     server and the kernel's I/O completion need. *)
  let wait_and_serve timeout =
    let wfds = List.filteri (fun t _ -> written.(t) < q.streams.(t).off.{due.(t)}) fd_list in
    match Unix.select fd_list wfds [] (Float.max 0.0 timeout) with
    | readable, writable, _ ->
        Array.iteri (fun t fd -> if List.memq fd readable then read_replies t) fds;
        if writable <> [] then flush_writes ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let drain () =
    let deadline = Clock.now () +. drain_timeout in
    while outstanding () > 0 && Clock.now () < deadline do
      wait_and_serve 0.001
    done;
    outstanding () = 0
  in
  let backlog = Array.make nseg [||] in
  let complete = ref true and segments_run = ref 0 and go_on = ref true in
  while !go_on && !segments_run < nseg do
    let si = !segments_run in
    let seg = q.segments.(si) in
    let span = Spans.enter ("served." ^ seg.label) in
    let start = Clock.now () +. 0.010 in
    seg_start.(si) <- start;
    let samples = ref [] in
    let next = ref seg.first and last = seg.first + seg.count in
    let next_sample = ref start in
    while !next < last do
      let now = Clock.now () in
      if start +. q.sched.(!next) <= now then begin
        while !next < last && start +. q.sched.(!next) <= now do
          attempt.(!next) <- now;
          let t = q.tenant.{!next} in
          due.(t) <- due.(t) + 1;
          incr next
        done;
        flush_writes ()
      end;
      if now >= !next_sample then begin
        samples := (now, float_of_int (outstanding ())) :: !samples;
        next_sample := !next_sample +. backlog_interval
      end;
      if !next < last then wait_and_serve (start +. q.sched.(!next) -. Clock.now ())
    done;
    backlog.(si) <- Array.of_list (List.rev !samples);
    if not (drain ()) then complete := false;
    Spans.exit span;
    incr segments_run;
    go_on :=
      !complete
      && continue_after
           { seg_start; attempt; recv; replies; backlog; segments_run = si + 1; complete = true }
           si
  done;
  { seg_start; attempt; recv; replies; backlog; segments_run = !segments_run; complete = !complete }

(* {1 Analysis} *)

let latencies (q : requests) (r : run) si =
  let s = q.segments.(si) in
  Array.init s.count (fun k ->
      let g = s.first + k in
      r.recv.(g) -. (r.seg_start.(si) +. q.sched.(g)))

(* how late the generator started each request of segment [si] *)
let lateness (q : requests) (r : run) si =
  let s = q.segments.(si) in
  Array.init s.count (fun k -> r.attempt.(s.first + k) -. (r.seg_start.(si) +. q.sched.(s.first + k)))

(* per scheduled segment run: (label, lateness samples) *)
let lateness_by_segment (q : requests) (r : run) =
  List.init r.segments_run Fun.id
  |> List.filter (fun si -> Float.is_finite q.segments.(si).rate)
  |> List.map (fun si -> (q.segments.(si).label, lateness q r si))

let segment_index (q : requests) label =
  let rec go i = if q.segments.(i).label = label then i else go (i + 1) in
  go 0

(* {1 Verification} *)

let expected_reply session (s : stream) j =
  if arrive s j then
    match Session.arrive session ~at:s.time.(j) ~id:s.id.{j} ~size:(size s j) () with
    | p ->
        Printf.sprintf "PLACED %d %d" p.Session.bin_id (if p.Session.opened_new_bin then 1 else 0)
    | exception Session.Session_error m -> "REJECT " ^ m
  else
    match Session.depart session ~at:s.time.(j) ~item_id:s.id.{j} with
    | () -> "OK"
    | exception Session.Session_error m -> "ERR " ^ m

let shadow ~seed ~policy_name t =
  Session.create ~record_trace:false ~capacity
    ~policy:(Policy.of_name_exn ~rng:(S.Tenant.rng ~seed tenants.(t)) policy_name)
    ()

(* Lemma 1 (i) bound of a tenant's stream, items still live at the end
   departing at [at] (after the last arrival) *)
let lower_bound (s : stream) ~at =
  let arrived = Hashtbl.create 64 and items = ref [] in
  for j = 0 to length s - 1 do
    if arrive s j then Hashtbl.replace arrived s.id.{j} j
    else begin
      let k = Hashtbl.find arrived s.id.{j} in
      Hashtbl.remove arrived s.id.{j};
      items := (s.time.(k), s.time.(j), size s k) :: !items
    end
  done;
  Hashtbl.iter (fun _ k -> items := (s.time.(k), at, size s k) :: !items) arrived;
  Bounds.height_integral (Instance.of_specs_exn ~capacity (List.rev !items))

(* {1 Stage ladder} *)

(* The batches the server formed over the first [limit] requests of a
   phase, recovered from the replies: one tick's replies leave together,
   so requests answered within [gap] of the batch's first reply belong to
   its batch. *)
let batches_of (q : requests) (r : run) si ~gap ~limit =
  let s = q.segments.(si) in
  let stop = s.first + min s.count limit in
  let out = ref [] and lo = ref s.first in
  for g = s.first + 1 to stop - 1 do
    if r.recv.(g) -. r.recv.(!lo) > gap || r.recv.(g) < r.recv.(!lo) then begin
      out := (!lo, g) :: !out;
      lo := g
    end
  done;
  Array.of_list (List.rev ((!lo, stop) :: !out))

type stage_env = {
  q : requests;
  warm : int;  (** requests [0, warm) set the state up, untimed *)
  batches : (int * int) array;  (** the timed requests, batched *)
  seed : int;
}

let events_in env = snd env.batches.(Array.length env.batches - 1) - fst env.batches.(0)

let journal_event env g (p : Session.placement option) =
  let t = env.q.tenant.{g} and j = env.q.local.{g} in
  let s = env.q.streams.(t) in
  match p with
  | Some p ->
      S.Journal.Arrive
        {
          tenant = tenants.(t);
          time = s.time.(j);
          item_id = s.id.{j};
          size = size s j;
          bin_id = p.Session.bin_id;
          opened_new_bin = p.Session.opened_new_bin;
        }
  | None -> S.Journal.Depart { tenant = tenants.(t); time = s.time.(j); item_id = s.id.{j} }

let apply_one sessions env g =
  let t = env.q.tenant.{g} and j = env.q.local.{g} in
  let s = env.q.streams.(t) in
  if arrive s j then Some (Session.arrive sessions.(t) ~at:s.time.(j) ~id:s.id.{j} ~size:(size s j) ())
  else begin
    Session.depart sessions.(t) ~at:s.time.(j) ~item_id:s.id.{j};
    None
  end

(* Stages 1-4: [Session.apply], then + encode, + append, + fsync. Returns
   the timed wall seconds. *)
let engine_stage env ~stage ~dir =
  let sessions = Array.init (Array.length tenants) (shadow ~seed:env.seed ~policy_name:policy) in
  for g = 0 to env.warm - 1 do
    ignore (apply_one sessions env g)
  done;
  let disk = new_disk () in
  let writer =
    if stage < 3 then None
    else
      Some
        (S.Journal.create
           ~io:(counting_io ~fsync:(if stage = 3 then `Skip else `Real) disk)
           ~fsync_every:(1 lsl 20) ~segment_bytes ~path:(Filename.concat dir "stage.log")
           { S.Journal.policy; seed = env.seed; capacity; base = 0 })
  in
  let t0 = Clock.now () in
  Array.iteri
    (fun b (lo, hi) ->
      let span = Spans.enter ~batch:b (Printf.sprintf "stage%d.batch" stage) in
      let staged = ref [] in
      for g = lo to hi - 1 do
        let p = Spans.with_ "engine.apply" (fun () -> apply_one sessions env g) in
        if stage >= 2 then begin
          let e = journal_event env g p in
          ignore (Spans.with_ "service.encode" (fun () -> S.Journal.encode_event e));
          staged := e :: !staged
        end
      done;
      (match writer with
      | Some w ->
          Spans.with_ "service.append_batch" (fun () -> S.Journal.append_batch w (List.rev !staged))
      | None -> ());
      Spans.exit span)
    env.batches;
  let wall = Clock.now () -. t0 in
  Option.iter S.Journal.close writer;
  wall

let server_for env ~dir ~metrics =
  ok_or_fail "server"
    (S.Server.create ~metrics (server_config ~dir ~seed:env.seed ~compaction:false))

let lines env lo hi =
  Array.init (hi - lo) (fun k ->
      let g = lo + k in
      line env.q.streams.(env.q.tenant.{g}) env.q.local.{g})

(* Stage 5: [Server.handle_batch] in process, with the default metrics or
   the no-op bundle. *)
let handle_batch_stage env ~dir ~noop =
  let metrics = if noop then S.Metrics.noop () else S.Metrics.create ~clock:Clock.now () in
  let server = server_for env ~dir ~metrics in
  ignore (S.Server.handle_batch server (lines env 0 env.warm));
  let batches = Array.map (fun (lo, hi) -> lines env lo hi) env.batches in
  let t0 = Clock.now () in
  Array.iteri
    (fun b ls ->
      Spans.with_ ~batch:b "stage5.batch" (fun () -> ignore (S.Server.handle_batch server ls)))
    batches;
  let wall = Clock.now () -. t0 in
  S.Server.close server;
  wall

(* Stage 6: the same batches through sockets and the [Event_loop], one
   batch in flight at a time. *)
let event_loop_stage env ~dir =
  let server = server_for env ~dir ~metrics:(S.Metrics.create ()) in
  let fds, domain = start_server server in
  let rbuf = Bytes.create 65536 in
  let send_and_wait lo hi =
    let nt = Array.length tenants in
    let out = Array.init nt (fun _ -> Buffer.create 4096) and want = Array.make nt 0 in
    for g = lo to hi - 1 do
      let t = env.q.tenant.{g} in
      let s = env.q.streams.(t) and j = env.q.local.{g} in
      Buffer.add_subbytes out.(t) s.bytes s.off.{j} (s.off.{j + 1} - s.off.{j});
      want.(t) <- want.(t) + 1
    done;
    Array.iteri
      (fun t b ->
        let s = Buffer.contents b in
        let pos = ref 0 in
        while !pos < String.length s do
          pos := !pos + Unix.write_substring fds.(t) s !pos (String.length s - !pos)
        done)
      out;
    Array.iteri
      (fun t w ->
        let got = ref 0 in
        while !got < w do
          let k = Unix.read fds.(t) rbuf 0 (Bytes.length rbuf) in
          if k = 0 then failwith "event loop closed the connection";
          for i = 0 to k - 1 do
            if Bytes.get rbuf i = '\n' then incr got
          done
        done)
      want
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Unix.close fds;
      Domain.join domain)
    (fun () ->
      send_and_wait 0 env.warm;
      let t0 = Clock.now () in
      Array.iteri
        (fun b (lo, hi) -> Spans.with_ ~batch:b "stage6.batch" (fun () -> send_and_wait lo hi))
        env.batches;
      Clock.now () -. t0)

(* heavy-phase requests the stage ladder replays *)
let stage_requests = 20_000

let stage_names =
  [| "session.apply"; "+encode"; "+append"; "+fsync"; "handle_batch"; "event_loop"; "handle_batch.noop" |]

let run_stage env ~dir k =
  let sub = Filename.concat dir (Printf.sprintf "stage%d" k) in
  mkdir_p sub;
  Fun.protect ~finally:(fun () -> remove_tree sub) @@ fun () ->
  match k with
  | 1 | 2 | 3 | 4 -> engine_stage env ~stage:k ~dir:sub
  | 5 -> handle_batch_stage env ~dir:sub ~noop:false
  | 6 -> event_loop_stage env ~dir:sub
  | _ -> handle_batch_stage env ~dir:sub ~noop:true

(* Three untraced repetitions give the medians; a fourth records spans. *)
let stage_ladder r env ~dir =
  let reps = 3 in
  let walls = Array.make_matrix 7 reps 0.0 and words = Array.make 7 0.0 in
  Spans.enabled := false;
  for rep = 0 to reps - 1 do
    for k = 1 to 7 do
      let w0 = words_allocated () in
      walls.(k - 1).(rep) <- run_stage env ~dir k;
      words.(k - 1) <- words.(k - 1) +. words_allocated () -. w0
    done
  done;
  let n = float_of_int (events_in env) in
  let ns = Array.map (fun w -> 1e9 *. Stats.median w /. n) walls in
  Array.iteri
    (fun k v ->
      Printf.printf "stage  %d %-18s %10.1f ns/event  %+9.1f  %8.1f words/event (setup included)\n"
        (k + 1) stage_names.(k) v
        (if k = 0 || k = 6 then v else v -. ns.(k - 1))
        (words.(k) /. float_of_int reps /. n))
    ns;
  add r "engine.apply_ns_per_event" ns.(0);
  add r "service.encode_ns_per_event" (ns.(1) -. ns.(0));
  add r "service.append_ns_per_event" (ns.(2) -. ns.(1));
  add r "service.fsync_ns_per_event" (ns.(3) -. ns.(2));
  add r "service.handle_batch_ns_per_event" (ns.(4) -. ns.(3));
  add r "service.event_loop_ns_per_event" (ns.(5) -. ns.(4));
  add r "obs.overhead_pct" (100.0 *. ((ns.(4) /. ns.(6)) -. 1.0));
  Spans.reset ();
  Spans.enabled := true;
  for k = 1 to 6 do
    ignore (run_stage env ~dir k)
  done;
  Spans.enabled := false

(* {1 Saturation}

   Every request is queued at once and handed to [Server.handle_batch] in
   process, in batches of the event loop's largest size, with the journal
   on disk. Without the generator and the socket hop the server has one
   core to itself, so this capacity figure holds still on a two-core host
   where the socket path's does not; the event loop's own cost is the
   stage ladder's last step. *)

let saturation_batch = 16384

(* events per second, and the replies as a [run] for verification *)
let saturate server (q : requests) =
  let n = Array.length q.sched in
  let lines = Array.init n (fun g -> line q.streams.(q.tenant.{g}) q.local.{g}) in
  let replies = Array.make n "" in
  Gc.full_major ();
  let t0 = Clock.now () in
  let lo = ref 0 in
  while !lo < n do
    let k = min saturation_batch (n - !lo) in
    Array.iteri
      (fun i (reply, _) -> replies.(!lo + i) <- reply)
      (S.Server.handle_batch server (Array.sub lines !lo k));
    lo := !lo + k
  done;
  let wall = Clock.now () -. t0 in
  S.Server.close server;
  let per_tenant = Array.map (fun _ -> Buffer.create (16 * n)) tenants in
  Array.iteri
    (fun g reply ->
      let b = per_tenant.(q.tenant.{g}) in
      Buffer.add_string b reply;
      Buffer.add_char b '\n')
    replies;
  let nseg = Array.length q.segments in
  ( {
      seg_start = Array.make nseg t0;
      attempt = Array.make n t0;
      recv = Array.make n (t0 +. wall);
      replies = per_tenant;
      backlog = Array.make nseg [||];
      segments_run = nseg;
      complete = true;
    },
    float_of_int n /. wall )

(* {1 The workload} *)

let metric rows name = match Prom.find rows name with Some row -> row.Prom.value | None -> 0.0

(* Replies against fresh shadow sessions fed the same requests; [status]
   marks each sent request right or wrong. *)
let verify ~seed ~policy_name (q : requests) (r : run) =
  let nt = Array.length tenants in
  let sent =
    if r.segments_run = 0 then 0
    else
      let s = q.segments.(r.segments_run - 1) in
      s.first + s.count
  in
  let status = Array.make (Array.length q.sched) true in
  let wrong = ref 0 and examples = ref [] in
  let shadows = Array.init nt (shadow ~seed ~policy_name) in
  for t = 0 to nt - 1 do
    let got = String.split_on_char '\n' (Buffer.contents r.replies.(t)) |> Array.of_list in
    let s = q.streams.(t) in
    for j = 0 to length s - 1 do
      let g = q.global.(t).{j} in
      if g < sent then begin
        let want = expected_reply shadows.(t) s j in
        (* the workload is built so that no request is refused *)
        let refused =
          String.starts_with ~prefix:"ERR" want || String.starts_with ~prefix:"REJECT" want
        in
        if refused || j >= Array.length got || got.(j) <> want then begin
          incr wrong;
          status.(g) <- false;
          if List.length !examples < 3 then
            examples :=
              Printf.sprintf "%s #%d: got %S, shadow %S" tenants.(t) j
                (if j < Array.length got then got.(j) else "<none>")
                want
              :: !examples
        end
      end
    done
  done;
  (sent, !wrong, List.rev !examples, status, shadows)

let phase_latency (q : requests) (r : run) si = (latencies q r si, q.segments.(si))

let rung_of (q : requests) (r : run) status si =
  let lat, s = phase_latency q r si in
  let failed = ref 0 in
  for k = 0 to s.count - 1 do
    if not status.(s.first + k) then incr failed
  done;
  {
    Stats.rate = s.rate;
    tail_ms = 1e3 *. Stats.quantile lat 0.99;
    failed = !failed;
    backlog_growing = Stats.backlog_growing ~rate:s.rate ~tolerance_s:0.002 r.backlog.(si);
  }

(* Runs [q] against a fresh [Event_loop] server on its own domain. *)
let serve_and_drive ?continue_after server q =
  let fds, domain = start_server server in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Unix.close fds;
      Domain.join domain)
    (fun () -> drive ?continue_after q fds)

let run ~seed ~seconds ~trace ~sabotage r =
  with_run_dir "served" @@ fun dir ->
  let durable_dir = Filename.concat dir "durable" in
  mkdir_p durable_dir;
  let setups =
    timed_setups r 3 (fun () ->
        let (qa, qb, qc), gen_s =
          Clock.time (fun () ->
              ( generate ~seed ~key:1 (durable_plan ~seconds),
                generate ~seed ~key:2 (ladder_plan ~seconds),
                generate ~seed ~key:3 saturation_plan ))
        in
        (* server start: journal creation, domain spawn, first tick *)
        let sub = Filename.concat dir "setup" in
        mkdir_p sub;
        let server =
          ok_or_fail "server"
            (S.Server.create ~io:(counting_io (new_disk ()))
               (server_config ~dir:sub ~seed ~compaction:true))
        in
        let fds, domain = start_server server in
        Array.iter Unix.close fds;
        Domain.join domain;
        remove_tree sub;
        (qa, qb, qc, gen_s))
  in
  add r "workload.gen_s"
    (Stats.median (Array.of_list (List.map (fun (_, _, _, g) -> g) setups)));
  let qa, qb, qc, _ = List.hd setups in
  Gc.full_major ();
  let words0 = words_allocated () and majors0 = major_collections () in
  Spans.enabled := trace;
  (* the saturation bursts and the capacity ladder each run on a fresh
     server with compaction off: they measure the event path, not where
     the compaction passes fall *)
  let fresh_server name =
    let sub = Filename.concat dir name in
    mkdir_p sub;
    ok_or_fail "server"
      (S.Server.create ~io:(counting_io (new_disk ()))
         (server_config ~dir:sub ~seed ~compaction:false))
  in
  (* 1. saturation bursts first, while the heap holds little but the
     requests *)
  let policy_name = if sabotage then "ff" else policy in
  (* words the burst checks allocate, kept out of the runtime figures *)
  let check_words = ref 0.0 in
  let runs_c =
    (* the host's speed while each burst ran *)
    let host = Calib.start () in
    List.init (saturation_bursts ~seconds) (fun i ->
        let server = fresh_server (Printf.sprintf "saturation%d" i) in
        let run, eps = Spans.with_ "served.saturation" (fun () -> saturate server qc) in
        let ref_s = Calib.after host in
        (* each burst's replies are checked as soon as it ends, outside
           its timed window, and dropped: kept for the end, fifteen
           bursts' replies doubled the peak resident memory (1.0 GB
           against 0.5 GB) *)
        let w0 = words_allocated () in
        let sent, wrong, ex, _, _ = verify ~seed ~policy_name qc run in
        check_words := !check_words +. (words_allocated () -. w0);
        ((run.complete, sent, wrong, ex), (eps, ref_s)))
  in
  (* 2. the durable path: light then heavy, with online compaction *)
  Gc.full_major ();
  let disk = new_disk () in
  let metrics = S.Metrics.create () in
  let config = server_config ~dir:durable_dir ~seed ~compaction:true in
  let server = ok_or_fail "server" (S.Server.create ~io:(counting_io disk) ~metrics config) in
  let run_a = serve_and_drive server qa in
  let all_ok = Array.make (Array.length qb.sched) true in
  (* 3. the ladder; each phase starts from a settled heap, not the
     previous one's debt *)
  Gc.full_major ();
  let run_b =
    serve_and_drive (fresh_server "ladder") qb ~continue_after:(fun run si ->
        Stats.rung_ok ~limit_ms (rung_of qb run all_ok si))
  in
  Spans.enabled := false;
  let words = words_allocated () -. words0 -. !check_words
  and majors = major_collections () - majors0 in
  (* everything below is outside the timed window *)
  let sent_a, wrong_a, ex_a, _, shadows = verify ~seed ~policy_name qa run_a in
  let sent_b, wrong_b, ex_b, status_b, _ = verify ~seed ~policy_name qb run_b in
  let sent_c, wrong_c, ex_c =
    List.fold_left
      (fun (n, w, ex) ((_, n', w', ex'), _) -> (n + n', w + w', ex @ ex'))
      (0, 0, []) runs_c
  in
  let sent = sent_a + sent_b + sent_c and wrong = wrong_a + wrong_b + wrong_c in
  Report.check r "served.replies_match_shadow"
    (wrong = 0 && run_a.complete && run_b.complete
    && List.for_all (fun ((complete, _, _, _), _) -> complete) runs_c)
    (if wrong = 0 then Printf.sprintf "%d replies equal the shadow sessions'" sent
     else String.concat "; " (ex_a @ ex_b @ ex_c));
  Report.count r ~attempted:sent ~failed:wrong;
  add r "failed_frac" (float_of_int wrong /. float_of_int sent);
  (* cost against the bound, from the durable run's shadows (equal to the
     server's sessions when the replies match) *)
  let cost = ref 0.0 and lb = ref 0.0 in
  Array.iteri
    (fun t sh ->
      (* each bound is built on a settled heap: the high-water mark must
         not depend on how much of the checks' garbage a collection had
         reached *)
      Gc.full_major ();
      cost := !cost +. Session.cost_so_far sh;
      lb := !lb +. lower_bound qa.streams.(t) ~at:(Session.now sh +. dt))
    shadows;
  add r "cost_over_lb" (!cost /. !lb);
  let by_segment = lateness_by_segment qa run_a @ lateness_by_segment qb run_b in
  let late = Array.concat (List.map snd by_segment) in
  add r "gen.late_ms_p99" (1e3 *. Stats.quantile late 0.99);
  let worst_label, worst_median =
    List.fold_left
      (fun (wl, wm) (label, l) ->
        let m = 1e3 *. Stats.median l in
        if m > wm then (label, m) else (wl, wm))
      ("-", 0.0) by_segment
  in
  Report.check r "served.generator_on_schedule" (worst_median <= late_limit_ms)
    (Printf.sprintf
       "median start lateness at most %.3f ms (%s; limit %.1f ms); p99 %.3f ms, max %.3f ms"
       worst_median worst_label late_limit_ms
       (1e3 *. Stats.quantile late 0.99)
       (1e3 *. Array.fold_left Float.max 0.0 late));
  let light, _ = phase_latency qa run_a (segment_index qa "light") in
  let heavy, _ = phase_latency qa run_a (segment_index qa "heavy") in
  List.iter
    (fun (name, lat) ->
      let n = Array.length lat in
      (* the tail is the highest percentile with ten samples beyond it *)
      let tail = Option.value (Stats.tail_quantile n) ~default:0.5 in
      Printf.printf "info   %s latency from schedule: n=%d p50 %.3f p90 %.3f p%g %.3f ms\n" name n
        (1e3 *. Stats.quantile lat 0.5) (1e3 *. Stats.quantile lat 0.9) (100.0 *. tail)
        (1e3 *. Stats.quantile lat tail))
    [ ("light", light); ("heavy", heavy) ];
  add r "p50_ms_light" (1e3 *. Stats.quantile light 0.5);
  add r "p99_ms_light" (1e3 *. Stats.quantile light 0.99);
  add r "p50_ms_heavy" (1e3 *. Stats.quantile heavy 0.5);
  add r "p99_ms_heavy" (1e3 *. Stats.quantile heavy 0.99);
  (* the gated figure: a request's typical latency at the light rate *)
  add r "p50_ms" (1e3 *. Stats.quantile light 0.5);
  add r "p99_ms" (1e3 *. Stats.quantile light 0.99);
  let bursts = List.map (fun (_, (eps, _)) -> eps) runs_c in
  let refs = List.map (fun (_, (_, ref_s)) -> ref_s) runs_c in
  let norm = List.map2 (fun eps ref_s -> Calib.normalise ~ref_s eps) bursts refs in
  Printf.printf "info   saturation bursts: %s events/s; at nominal host speed %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.0f") bursts))
    (String.concat ", " (List.map (Printf.sprintf "%.0f") norm));
  add r "sustained_eps" (Stats.median (Array.of_list bursts));
  add r "sustained_eps_norm" (Stats.median (Array.of_list norm));
  add r "host.ref_ms" (1e3 *. Stats.median (Array.of_list refs));
  let rungs =
    List.init run_b.segments_run (fun si ->
        let rung = rung_of qb run_b status_b si in
        let lat, s = phase_latency qb run_b si in
        Printf.printf "rung   %-14s p50 %8.3f ms  p99 %8.3f ms  failed %d  backlog %s  %s\n"
          s.label
          (1e3 *. Stats.quantile lat 0.5)
          rung.Stats.tail_ms rung.Stats.failed
          (if rung.Stats.backlog_growing then "growing" else "steady")
          (if Stats.rung_ok ~limit_ms rung then "ok" else "over");
        rung)
  in
  let max_eps = Option.value (Stats.max_rate_at_slo ~limit_ms rungs) ~default:0.0 in
  add r "max_eps_at_slo" max_eps;
  Printf.printf "info   ladder: highest rate meeting p99 <= %.0f ms: %.0f events/s (%d of %d rungs run)\n"
    limit_ms max_eps run_b.segments_run (Array.length qb.segments);
  (* the durable server's own counters *)
  let rows = ok_or_fail "metrics" (Prom.parse (S.Metrics.render_text metrics)) in
  let events = (S.Server.metrics server).S.Server.events in
  add r "service.events_per_fsync"
    (metric rows "dvbp_journal_records_appended_total"
    /. Float.max 1.0 (metric rows "dvbp_journal_fsyncs_total"));
  let compactions = metric rows "dvbp_server_compactions_total" in
  add r "service.compactions" compactions;
  add r "service.compaction_ms_max" (1e3 *. metric rows "dvbp_server_compaction_seconds_max");
  add r "service.snapshot_bytes" (float_of_int disk.snapshot_bytes_max);
  Report.check r "served.compaction_cycles" (compactions >= 3.0)
    (Printf.sprintf "%.0f online compaction passes, %d snapshots" compactions disk.snapshots);
  add r "journal_bytes_per_event" (float_of_int disk.bytes /. float_of_int (max 1 events));
  let fs = Array.sub disk.fsync_s 0 (min disk.fsyncs (Array.length disk.fsync_s)) in
  add r "service.fsync_ms_p50" (1e3 *. Stats.quantile fs 0.5);
  add r "service.fsync_ms_p99" (1e3 *. Stats.quantile fs 0.99);
  add r "runtime.alloc_words_per_event" (words /. float_of_int sent);
  add r "runtime.major_gcs" (float_of_int majors);
  let live = S.Server.sessions server in
  add_scan_stats r (session_tallies (List.map snd live));
  (* recovery from the files the durable server left, on a settled heap:
     without the collection the memory high-water mark depended on how
     much of the checks' garbage was still uncollected *)
  Gc.full_major ();
  let journal = Option.get config.S.Server.journal
  and snapshot = Option.get config.S.Server.snapshot in
  let recovered, recover_s =
    Clock.time (fun () -> ok_or_fail "recover" (S.Recovery.recover ~snapshot ~journal ()))
  in
  add r "recover_s" recover_s;
  let _, read_s =
    Clock.time (fun () ->
        ignore (S.Snapshot.load ~path:snapshot ());
        ignore (S.Journal.read_file journal))
  in
  add r "service.recovery_read_s" read_s;
  add r "service.recovery_replay_s" (Float.max 0.0 (recover_s -. read_s));
  let live_fp = List.map (fun (tn, sess) -> (tn, Session.fingerprint sess)) live in
  let mismatched =
    List.filter
      (fun (tn, sess) ->
        (* the deliberately wrong reference: another tenant's session *)
        let against =
          if sabotage then if tn = tenants.(0) then tenants.(1) else tenants.(0) else tn
        in
        match List.assoc_opt against live_fp with
        | Some fp -> fp <> Session.fingerprint sess
        | None -> true)
      recovered.S.Recovery.sessions
  in
  Report.check r "served.recovered_fingerprints"
    (mismatched = [] && List.length recovered.S.Recovery.sessions = List.length live)
    (Printf.sprintf "%d tenant sessions recovered, %d differ from the live server"
       (List.length recovered.S.Recovery.sessions)
       (List.length mismatched));
  Printf.printf "info   served: %d requests sent, %d events on the durable server, %d fsyncs, %d bytes to disk\n"
    sent events disk.fsyncs disk.bytes;
  if trace then begin
    let si = segment_index qa "heavy" in
    let env =
      {
        q = qa;
        warm = qa.segments.(si).first;
        batches = batches_of qa run_a si ~gap:50e-6 ~limit:stage_requests;
        seed;
      }
    in
    Printf.printf "info   stage ladder: %d heavy-phase events in %d recorded batches\n"
      (events_in env) (Array.length env.batches);
    stage_ladder r env ~dir;
    (* the open loop runs on a schedule, so tracing shows as lateness, not
       throughput: the overhead is the event-loop stage traced against
       untraced *)
    let untraced = run_stage env ~dir 6 in
    Spans.enabled := true;
    let traced = run_stage env ~dir 6 in
    Spans.enabled := false;
    add r "trace.overhead_pct" (100.0 *. ((traced /. untraced) -. 1.0));
    let spans = Spans.collect () in
    write_spans "served" ~seed spans (Spans.by_name spans)
  end
