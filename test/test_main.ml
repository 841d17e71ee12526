(* Aggregated alcotest runner for the skip-webs reproduction. *)

let () =
  Alcotest.run "skipweb"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("net", Test_net.suite);
      ("trace", Test_trace.suite);
      ("geom", Test_geom.suite);
      ("linklist", Test_linklist.suite);
      ("skiplist", Test_skiplist.suite);
      ("quadtree", Test_quadtree.suite);
      ("trie", Test_trie.suite);
      ("trapmap", Test_trapmap.suite);
      ("contract", Test_contract.suite);
      ("workload", Test_workload.suite);
      ("skipgraph", Test_skipgraph.suite);
      ("core", Test_core.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("blocked", Test_blocked.suite);
      ("churn", Test_churn.suite);
      ("roster", Test_roster.suite);
      ("serving", Test_serving.suite);
      ("soak", Test_core.soak_suite);
    ]
