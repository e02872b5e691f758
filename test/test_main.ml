let () =
  Alcotest.run "ppdm"
    [
      ("prng", Test_prng.suite);
      ("linalg", Test_linalg.suite);
      ("itemset", Test_itemset.suite);
      ("db", Test_db.suite);
      ("datagen", Test_datagen.suite);
      ("mining", Test_mining.suite);
      ("randomizer", Test_randomizer.suite);
      ("transition", Test_transition.suite);
      ("amplification", Test_amplification.suite);
      ("breach", Test_breach.suite);
      ("estimator", Test_estimator.suite);
      ("optimizer", Test_optimizer.suite);
      ("ppmining", Test_ppmining.suite);
      ("ldp", Test_ldp.suite);
      ("stream", Test_stream.suite);
      ("bitset", Test_bitset.suite);
      ("vertical", Test_vertical.suite);
      ("column", Test_colfile.suite);
      ("scheme_io", Test_scheme_io.suite);
      ("em", Test_em.suite);
      ("channel", Test_channel.suite);
      ("experiment", Test_experiment.suite);
      ("fuzz", Test_fuzz.suite);
      ("rules", Test_rules.suite);
      ("check", Test_check.suite);
      ("runtime", Test_runtime.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("trace", Test_trace.suite);
      ("server", Test_server.suite);
    ]
