(* [sweep]: the Figure 4 experiment pipeline as a closed batch.

   Table 2 uniform instances at d in {1,5} x mu in {10,200}, n = 1000,
   plus a dense cell (d = 5, mu = 200, n = 20000, where First Fit keeps
   about 2,100 bins open) with one instance per domain. Every instance is packed by the seven Any Fit
   policies, gets one lossless reduce -> ff -> lift pass, and is divided
   by the Lemma 1 (i) bound; the n = 1000 instances are also packed by
   ff+both2 (its consolidation search grows faster than linearly with the
   open bins, and takes minutes on the dense cell). Instances are sharded
   over nproc domains. Packings are validated after the timed window. *)

open Common
module Report = Perfbench_lib.Report
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans
module Clock = Perfbench_lib.Clock
module Calib = Perfbench_lib.Calib
module Rng = Dvbp_prelude.Rng
module Policy = Dvbp_core.Policy
module Packing = Dvbp_core.Packing
module Repack = Dvbp_engine.Repack
module Reduce = Dvbp_reduce.Reduce
module Bounds = Dvbp_lowerbound.Bounds
module Pool = Dvbp_parallel.Domain_pool
module Parallel = Dvbp_parallel.Parallel
module Uniform = Dvbp_workload.Uniform_model
module Registry = Dvbp_core.Bin_registry

let light_cells = [ (1, 10); (1, 200); (5, 10); (5, 200) ]
let light_per_cell = 4

(* one dense instance per domain of the 2-core host, first in the shard
   order so the pool starts them together and fills in with the small
   ones *)
let dense = (5, 200, 20_000)
let dense_instances = 2
let any_fit = Policy.standard_names
let repack_label = "ff+both2"
let repack_config = Repack.config ~budget:2 ~strategy:Repack.Combined ()
let competitors = any_fit @ [ repack_label ]
let repack_max_items = 1000

(* position of First Fit among the Any Fit passes: the reduce -> ff -> lift
   pass must reproduce its cost *)
let ff_index =
  let rec find k = function
    | "ff" :: _ -> k
    | _ :: rest -> find (k + 1) rest
    | [] -> invalid_arg "no ff among the Any Fit policies"
  in
  find 0 any_fit

type instance = { inst : Instance.t; events : Session.event array; label : string }

let repacks x = Instance.size x.inst <= repack_max_items

let generate ~seed =
  let root = Rng.create ~seed in
  let specs =
    List.init dense_instances (fun _ -> dense)
    @ List.concat_map
        (fun (d, mu) ->
          List.init light_per_cell (fun _ -> (d, mu, (Uniform.table2 ~d ~mu).Uniform.n)))
        light_cells
  in
  List.mapi
    (fun i (d, mu, n) ->
      let inst =
        Uniform.generate { (Uniform.table2 ~d ~mu) with Uniform.n } ~rng:(Rng.split root ~key:i)
      in
      (inst, Printf.sprintf "d%d.mu%d.n%d#%d" d mu n i))
    specs

let setup ~seed =
  let gen, gen_s = Clock.time (fun () -> generate ~seed) in
  let instances =
    List.map (fun (inst, label) -> { inst; events = events_of_instance inst; label }) gen
    |> Array.of_list
  in
  (instances, gen_s)

(* What one instance's task produced. *)
type outcome = {
  lb : float;
  costs : float array;  (** one per competitor, in [competitors] order *)
  packings : Packing.t array;  (** the Any Fit packings, then the lifted ff one *)
  lifted_cost : float;
  lossless : bool;
  pass_s : float array;  (** wall time of each competitor pass, then reduce *)
  scan_tallies : (Registry.scan_stats * int) list;  (** per Any Fit pass, with its arrivals *)
  migrations : int;
  repacked : bool;  (** whether the ff+both2 pass ran *)
  domain : int;
  started : float;
  stopped : float;
}

let pack ~policy (x : instance) events =
  let id = Spans.enter "engine.session" in
  let session =
    Session.create ~record_trace:false ~expected_items:(Instance.size x.inst)
      ~capacity:x.inst.Instance.capacity ~policy ()
  in
  apply_all session events;
  let stats = Session.scan_stats session in
  let packing = Session.finish session ~at:(Session.now session) in
  Spans.exit id;
  (packing, stats)

let run_instance ~seed ~parent i (x : instance) =
  let started = Clock.now () in
  let task = Spans.enter ~parent ~batch:i "sweep.instance" in
  let lb = Spans.with_ "lowerbound.height_integral" (fun () -> Bounds.height_integral x.inst) in
  let n_comp = List.length competitors in
  let costs = Array.make n_comp nan and pass_s = Array.make (n_comp + 1) nan in
  let tallies = ref [] in
  let packings =
    List.mapi
      (fun k name ->
        let t0 = Clock.now () in
        let rng = Rng.split (Rng.create ~seed) ~key:((1000 * i) + k) in
        let packing, st = pack ~policy:(Policy.of_name_exn ~rng name) x x.events in
        pass_s.(k) <- Clock.now () -. t0;
        costs.(k) <- Packing.cost packing;
        tallies := (st, Instance.size x.inst) :: !tallies;
        packing)
      any_fit
  in
  let k_repack = List.length any_fit in
  let repacked = repacks x in
  let migrations =
    if not repacked then 0
    else begin
      let t0 = Clock.now () in
      let run =
        Spans.with_ "engine.repack" (fun () ->
            Repack.run ~config:repack_config ~record_ledger:false ~policy:(Policy.first_fit ())
              x.inst)
      in
      pass_s.(k_repack) <- Clock.now () -. t0;
      costs.(k_repack) <- run.Repack.cost;
      run.Repack.stats.Repack.migrations
    end
  in
  let t0 = Clock.now () in
  let reduction = Spans.with_ "reduce.apply" (fun () -> Reduce.apply x.inst) in
  let reduced = Reduce.instance reduction in
  let lossless = reduced == x.inst in
  let reduced_events = if lossless then x.events else events_of_instance reduced in
  let packed, _ = pack ~policy:(Policy.first_fit ()) x reduced_events in
  let lifted = Spans.with_ "reduce.lift" (fun () -> Reduce.lift reduction packed) in
  pass_s.(n_comp) <- Clock.now () -. t0;
  Spans.exit task;
  {
    lb;
    costs;
    packings = Array.of_list (packings @ [ lifted ]);
    lifted_cost = Packing.cost lifted;
    lossless;
    pass_s;
    scan_tallies = !tallies;
    migrations;
    repacked;
    domain = (Domain.self () :> int);
    started;
    stopped = Clock.now ();
  }

(* wall seconds of the reference job run once on every domain of the
   pool at the same time, median of five *)
let host_ref pool () =
  Calib.median5 (fun () -> snd (Clock.time (fun () -> Pool.run pool Calib.job)))

(* One pass over every instance, sharded over the pool. *)
let round ~pool ~seed instances =
  let n = Array.length instances in
  let slots = Array.make n None in
  let parent = Spans.enter "sweep.round" in
  let t0 = Clock.now () in
  Parallel.chunked_for ~pool ~n (fun i ->
      slots.(i) <- Some (run_instance ~seed ~parent i instances.(i)));
  let wall = Clock.now () -. t0 in
  Spans.exit parent;
  (Array.map Option.get slots, t0, wall)

let items_per_round instances =
  (* seven Any Fit passes, the reduce -> ff pass, and the repack pass *)
  Array.fold_left
    (fun acc x ->
      let n = Instance.size x.inst in
      acc + ((List.length any_fit + 1) * n) + if repacks x then n else 0)
    0 instances

(* Busy share of the pool, and how long domains sat idle at the end of the
   round waiting for the last task. *)
let pool_figures ~jobs (outs, t0, wall) =
  let busy = Array.fold_left (fun acc o -> acc +. (o.stopped -. o.started)) 0.0 outs in
  let last = Hashtbl.create 4 in
  Array.iter
    (fun o ->
      Hashtbl.replace last o.domain
        (Float.max o.stopped (Option.value (Hashtbl.find_opt last o.domain) ~default:t0)))
    outs;
  let ends = Hashtbl.fold (fun _ v acc -> v :: acc) last [] in
  let straggler =
    if List.length ends < jobs then wall
    else List.fold_left Float.max t0 ends -. List.fold_left Float.min infinity ends
  in
  (busy /. (wall *. float_of_int jobs), straggler)

let validate ~sabotage r instances (first : outcome array) =
  let bad = ref [] in
  let note msg = if List.length !bad < 5 then bad := msg :: !bad in
  let failed = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun i o ->
      let inst = instances.(i).inst in
      (* the deliberately wrong reference: the instance without its last
         item, which every packing of the real one still places *)
      let against =
        if sabotage then
          Instance.make_exn ~capacity:inst.Instance.capacity
            (List.filteri (fun k _ -> k < Instance.size inst - 1) inst.Instance.items)
        else inst
      in
      Array.iteri
        (fun k p ->
          incr attempted;
          match Packing.validate against p with
          | Ok () -> ()
          | Error errs ->
              incr failed;
              note
                (Printf.sprintf "%s pass %d: %s" instances.(i).label k
                   (match errs with e :: _ -> e | [] -> "?")))
        o.packings;
      Array.iteri
        (fun k c ->
          if (k < List.length any_fit || o.repacked) && not (c >= o.lb *. (1.0 -. 1e-9)) then begin
            incr failed;
            note (Printf.sprintf "%s %s: cost %g below bound %g" instances.(i).label
                    (List.nth competitors k) c o.lb)
          end)
        o.costs;
      if o.lossless && o.lifted_cost <> o.costs.(ff_index) then begin
        incr failed;
        note (Printf.sprintf "%s: lossless reduce changed the ff cost" instances.(i).label)
      end)
    first;
  Report.check r "sweep.packings_valid" (!failed = 0)
    (if !bad = [] then Printf.sprintf "%d packings and bounds checked" !attempted
     else String.concat "; " (List.rev !bad));
  (!attempted, !failed)

let run ~seed ~seconds ~trace ~sabotage r =
  let jobs = max 1 (Domain.recommended_domain_count ()) in
  let setups = timed_setups r 3 (fun () -> setup ~seed) in
  let instances, _ = List.hd setups in
  add r "workload.gen_s" (Stats.median (Array.of_list (List.map snd setups)));
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* one untimed round: spawns the pool's domains, warms the caches *)
  let first, _, _ = round ~pool ~seed instances in
  let items = items_per_round instances in
  let measure ~traced budget =
    Spans.enabled := traced;
    let words0 = words_allocated () and majors0 = major_collections () in
    let t_end = Clock.now () +. budget in
    let rounds = ref [] and refs = ref [] in
    (* the host's speed while each round ran, from the reference job run
       on every domain of the pool at once *)
    let host = Calib.start ~sample:(host_ref pool) () in
    while !rounds = [] || Clock.now () < t_end do
      (* each round starts from a settled heap, so the memory high-water
         mark does not depend on when a collection ran *)
      Gc.full_major ();
      (* keep the figures, not the packings: memory must not grow with
         the number of rounds *)
      let outs, t0, wall = round ~pool ~seed instances in
      rounds := (Array.map (fun o -> { o with packings = [||] }) outs, t0, wall) :: !rounds;
      refs := Calib.after host :: !refs
    done;
    Spans.enabled := false;
    ( List.rev !rounds,
      List.rev !refs,
      words_allocated () -. words0,
      major_collections () - majors0 )
  in
  let untraced_budget = if trace then 0.4 *. seconds else seconds in
  let rounds, refs, words, majors = measure ~traced:false untraced_budget in
  let rate rounds =
    let wall = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 rounds in
    float_of_int (items * List.length rounds) /. wall
  in
  (* the median round: a burst of contention on the machine shifts one
     round, not the figure *)
  let round_rates = List.map (fun (_, _, wall) -> float_of_int items /. wall) rounds in
  let items_per_s = Stats.median (Array.of_list round_rates) in
  let norm_rates = List.map2 (fun rate ref_s -> Calib.normalise ~ref_s rate) round_rates refs in
  Printf.printf "info   sweep rounds: %s items/s; at nominal host speed %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.0f") round_rates))
    (String.concat ", " (List.map (Printf.sprintf "%.0f") norm_rates));
  (* every round must reproduce the first round's costs bit for bit *)
  let drift = ref 0 in
  List.iter
    (fun (outs, _, _) ->
      Array.iteri
        (fun i o ->
          if Array.exists2 (fun a b -> Int64.bits_of_float a <> Int64.bits_of_float b) o.costs
               first.(i).costs
          then incr drift)
        outs)
    rounds;
  Report.check r "sweep.deterministic" (!drift = 0)
    (Printf.sprintf "%d rounds, %d instances differing from the first" (List.length rounds)
       !drift);
  let passes =
    Array.concat
      (List.concat_map (fun (outs, _, _) -> Array.to_list (Array.map (fun o -> o.pass_s) outs))
         rounds)
    |> Array.to_list |> List.filter (fun s -> not (Float.is_nan s)) |> Array.of_list
  in
  add r "items_per_s" items_per_s;
  add r "sustained_eps" (2.0 *. items_per_s);
  add r "sustained_eps_norm" (2.0 *. Stats.median (Array.of_list norm_rates));
  add r "host.ref_ms" (1e3 *. Stats.median (Array.of_list refs));
  add r "p50_ms" (1e3 *. Stats.quantile passes 0.5);
  add r "p99_ms" (1e3 *. Stats.quantile passes 0.99);
  Printf.printf "info   sweep: %d rounds of %d instances, %d timed passes\n"
    (List.length rounds) (Array.length instances) (Array.length passes);
  let ratios =
    Array.concat (Array.to_list (Array.map (fun o -> Array.map (fun c -> c /. o.lb) o.costs) first))
    |> Array.to_list |> List.filter (fun x -> not (Float.is_nan x)) |> Array.of_list
  in
  add r "cost_over_lb" (Stats.mean ratios);
  let events = float_of_int (2 * items * List.length rounds) in
  add r "runtime.alloc_words_per_event" (words /. events);
  add r "runtime.major_gcs" (float_of_int majors);
  let busy, straggler =
    List.fold_left
      (fun (b, s) rd ->
        let b', s' = pool_figures ~jobs rd in
        (b +. b', s +. s'))
      (0.0, 0.0) rounds
  in
  let nr = float_of_int (List.length rounds) in
  add r "parallel.busy_ratio" (busy /. nr);
  add r "parallel.straggler_s" (straggler /. nr);
  add_scan_stats r (List.concat_map (fun o -> o.scan_tallies) (Array.to_list first));
  let n_items = Array.fold_left (fun acc x -> acc + Instance.size x.inst) 0 instances in
  let repacked_items =
    Array.fold_left (fun acc x -> if repacks x then acc + Instance.size x.inst else acc) 0 instances
  in
  add r "engine.repack_migrations_per_item"
    (float_of_int (Array.fold_left (fun acc o -> acc + o.migrations) 0 first)
    /. float_of_int repacked_items);
  if trace then begin
    Spans.reset ();
    let traced, _, _, _ = measure ~traced:true (0.6 *. seconds) in
    add r "trace.overhead_pct" (100.0 *. ((rate rounds /. rate traced) -. 1.0));
    let spans = Spans.collect () in
    let layers = Spans.by_name spans in
    let total name = match List.assoc_opt name layers with Some (_, d, _) -> d | None -> 0.0 in
    let nt = float_of_int (List.length traced) in
    let per_round_items = float_of_int n_items *. nt in
    (* engine.session spans cover the seven Any Fit passes and the ff pass
       over the reduced instance: 2 events per item each *)
    add r "engine.apply_ns_per_event"
      (1e9 *. total "engine.session"
      /. (2.0 *. per_round_items *. float_of_int (List.length any_fit + 1)));
    add r "engine.repack_ns_per_item"
      (1e9 *. total "engine.repack" /. (float_of_int repacked_items *. nt));
    add r "reduce.ns_per_item"
      (1e9 *. (total "reduce.apply" +. total "reduce.lift") /. per_round_items);
    add r "lowerbound.bound_s" (total "lowerbound.height_integral" /. nt);
    Common.write_spans "sweep" ~seed spans layers
  end;
  let attempted, failed = validate ~sabotage r instances first in
  Report.count r ~attempted ~failed;
  add r "failed_frac" (float_of_int failed /. float_of_int attempted)
