let () =
  Alcotest.run "stgq"
    [
      ("graph", Suite_graph.suite);
      ("timetable", Suite_timetable.suite);
      ("lp-ilp", Suite_lp.suite);
      ("search", Suite_search.suite);
      ("ip-model", Suite_ip.suite);
      ("arrange", Suite_arrange.suite);
      ("validate", Suite_validate.suite);
      ("parallel", Suite_parallel.suite);
      ("workload", Suite_workload.suite);
      ("pqueue", Suite_pqueue.suite);
      ("topk", Suite_topk.suite);
      ("heuristics", Suite_heuristics.suite);
      ("planner", Suite_planner.suite);
      ("explain", Suite_explain.suite);
      ("service", Suite_service.suite);
      ("engine", Suite_engine.suite);
      ("obs", Suite_obs.suite);
      ("trace", Suite_trace.suite);
      ("flightrec", Suite_flightrec.suite);
      ("regression", Suite_regression.suite);
      ("proto", Suite_proto.suite);
      ("server", Suite_server.suite);
      ("community", Suite_community.suite);
      ("report", Suite_report.suite);
      ("lint", Suite_lint.suite);
      ("resilience", Suite_resilience.suite);
      ("fault-matrix", Suite_faultmatrix.suite);
      ("store", Suite_store.suite);
      ("io", Suite_io.suite);
      ("integration", Suite_integration.suite);
      ("paper-example", Suite_paper_example.suite);
      ("lint-typed", Suite_lint_typed.suite);
    ]
