(* Aggregates every suite; `dune runtest` runs this executable. *)

let () =
  Alcotest.run "turquois-repro"
    [
      Test_rng.suite;
      Test_stats.suite;
      Test_codec.suite;
      Test_znum.suite;
      Test_crypto.suite;
      Test_engine.suite;
      Test_obs.suite;
      Test_net.suite;
      Test_core_units.suite;
      Test_validation.suite;
      Test_machine.suite;
      Test_protocols.suite;
      Test_service.suite;
      Test_extensions.suite;
      Test_misc_units.suite;
      Test_ordered_log.suite;
      Test_harness.suite;
      Test_pool.suite;
      Test_chaos.suite;
      Test_hotpath.suite;
      Test_model.suite;
      Test_workload.suite;
      Test_scale.suite;
      Equiv.suite;
    ]
