(* Benchmark entry point: runs one workload in this process.

   perfbench.exe --workload sweep|served|replay --seed N --seconds S
                 --trace 0|1 [--sabotage]

   [--trace 0] measures with tracing off and ends with the end-to-end
   metrics; [--trace 1] is the traced run and ends with the per-layer
   metrics. [--sabotage] swaps every correctness check's reference for a
   deliberately wrong one (a shadow with another policy, an instance
   missing an item, another tenant), to show that the checks can fail. *)

module Report = Perfbench_lib.Report

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload sweep|served|replay --seed N --seconds S --trace 0|1 \
     [--sabotage]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let sabotage = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--sabotage" :: rest ->
        sabotage := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown or incomplete argument %S\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match !workload with
    | "sweep" -> Sweep.run
    | "served" -> Served.run
    | "replay" -> Replay.run
    | _ -> usage ()
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace ->
      Report.print_meta ~workload:!workload ~seed ~seconds ~trace
        ~extra:[ ("sabotage", string_of_bool !sabotage) ];
      let r = Report.create () in
      (match run ~seed ~seconds ~trace ~sabotage:!sabotage r with
      | () -> ()
      | exception e ->
          Printf.eprintf "perfbench %s failed: %s\n%!" !workload (Printexc.to_string e);
          exit 1);
      Common.add r "rss_peak_mb" (Report.rss_peak_mb ());
      if trace then Common.zero_unmeasured r;
      print_endline
        (Report.result_line r ~wanted:(if trace then Common.per_layer else Common.end_to_end))
  | _ -> usage ()
