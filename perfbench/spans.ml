(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent, batch). Spans are recorded only
   by the benchmark's own code, around its calls into each layer, and only
   when [enabled] is set; disabled, [enter] returns [-1] without reading
   the clock. Each domain appends to its own buffer, so recording takes no
   lock; {!collect} merges them once the workload is over. *)

let enabled = ref false

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a root *)
  batch : int;  (** [-1] when the span belongs to no batch *)
}

type buf = {
  slot : int;
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable batches : int array;
  mutable open_ : int list;  (* innermost open span first *)
}

let all : buf list ref = ref []
let lock = Mutex.create ()
let next_slot = ref 0

(* span ids encode their domain's buffer slot, so a child recorded on a
   worker domain can name a parent opened on the main domain *)
let slot_bits = 40

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect lock (fun () ->
          let b =
            {
              slot = !next_slot;
              n = 0;
              names = Array.make 256 "";
              starts = Array.make 256 0.0;
              stops = Array.make 256 0.0;
              parents = Array.make 256 (-1);
              batches = Array.make 256 (-1);
              open_ = [];
            }
          in
          incr next_slot;
          all := b :: !all;
          b))

let grow b =
  let cap = 2 * Array.length b.names in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.names <- extend b.names "";
  b.starts <- extend b.starts 0.0;
  b.stops <- extend b.stops 0.0;
  b.parents <- extend b.parents (-1);
  b.batches <- extend b.batches (-1)

(* [parent] defaults to the innermost span still open on this domain *)
let enter ?parent ?(batch = -1) name =
  if not !enabled then -1
  else begin
    let b = Domain.DLS.get key in
    if b.n = Array.length b.names then grow b;
    let i = b.n in
    b.n <- i + 1;
    let parent =
      match (parent, b.open_) with
      | Some p, _ -> p
      | None, p :: _ -> p
      | None, [] -> -1
    in
    let id = (b.slot lsl slot_bits) lor i in
    b.names.(i) <- name;
    b.parents.(i) <- parent;
    b.batches.(i) <- batch;
    b.stops.(i) <- nan;
    b.open_ <- id :: b.open_;
    b.starts.(i) <- Clock.now ();
    id
  end

let exit id =
  if id >= 0 then begin
    let t = Clock.now () in
    let b = Domain.DLS.get key in
    let i = id land ((1 lsl slot_bits) - 1) in
    b.stops.(i) <- t;
    b.open_ <- List.filter (fun j -> j <> id) b.open_
  end

let with_ ?parent ?batch name f =
  if not !enabled then f ()
  else begin
    let id = enter ?parent ?batch name in
    Fun.protect ~finally:(fun () -> exit id) f
  end

(* Completed spans of every domain, in start order. *)
let collect () =
  Mutex.protect lock (fun () ->
      List.concat_map
        (fun b ->
          List.init b.n (fun i ->
              {
                id = (b.slot lsl slot_bits) lor i;
                name = b.names.(i);
                start = b.starts.(i);
                stop = b.stops.(i);
                parent = b.parents.(i);
                batch = b.batches.(i);
              }))
        !all)
  |> List.filter (fun s -> not (Float.is_nan s.stop))
  |> List.sort (fun a b -> Float.compare a.start b.start)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span: its duration minus the part of it that its
   children cover. Returned per span id. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop) :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Per span name: (count, total duration, total self time), in first-seen
   order. *)
let by_name spans =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s, self) ->
      let n, dur, st =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (n + 1, dur +. (s.stop -. s.start), st +. self))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_s\tstop_s\tparent\tbatch\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" s.id s.name s.start s.stop
            s.parent s.batch)
        spans)

(* Forget everything recorded so far (between repetitions). *)
let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          b.n <- 0;
          b.open_ <- [])
        !all)
