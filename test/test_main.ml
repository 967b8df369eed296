(* Entry point for the full test suite. Each module contributes a list of
   named alcotest suites. *)

let () =
  Alcotest.run "dvbp"
    (Test_prelude.suites @ Test_parallel.suites @ Test_vec.suites @ Test_interval.suites
   @ Test_stats.suites @ Test_core.suites @ Test_engine.suites
   @ Test_lowerbound.suites @ Test_workload.suites @ Test_adversary.suites
   @ Test_registry.suites @ Test_analysis.suites @ Test_report.suites
   @ Test_experiments.suites @ Test_session.suites @ Test_golden.suites
   @ Test_props.suites @ Test_service.suites @ Test_sim.suites
   @ Test_cli.suites @ Test_printers.suites @ Test_obs.suites
   @ Test_tracestore.suites @ Test_reduce.suites @ Test_repack.suites
   @ Test_record.suites)
