let () =
  Alcotest.run "fpgatest"
    [
      ("bitvec", Test_bitvec.suite);
      ("xmlkit", Test_xmlkit.suite);
      ("dotkit", Test_dotkit.suite);
      ("sim", Test_sim.suite);
      ("kernel", Test_kernel.suite);
      ("operators", Test_operators.suite);
      ("netlist", Test_netlist.suite);
      ("fsmkit", Test_fsmkit.suite);
      ("rtg", Test_rtg.suite);
      ("lang", Test_lang.suite);
      ("compiler", Test_compiler.suite);
      ("transform", Test_transform.suite);
      ("cyclesim", Test_cyclesim.suite);
      ("cosim", Test_cosim.suite);
      ("vcd", Test_vcd.suite);
      ("hdl", Test_hdl.suite);
      ("testinfra", Test_testinfra.suite);
      ("pool", Test_pool.suite);
      ("workloads", Test_workloads.suite);
      ("faults", Test_faults.suite);
      ("fastsim", Test_fastsim.suite);
      ("fuzz", Test_fuzz.suite);
      ("lint", Test_lint.suite);
      ("absint", Test_absint.suite);
      ("ec", Test_ec.suite);
      ("tv", Test_tv.suite);
      ("resilience", Test_resilience.suite);
      ("shard", Test_shard.suite);
      ("integration", Test_integration.suite);
    ]
