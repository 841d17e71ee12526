(* E1–E7: Table 1 of the paper — the seven one-dimensional structures
   compared on memory M, congestion C(n), query cost Q(n) and update cost
   U(n), all measured in the paper's message-cost model.

   The paper's Table 1 is asymptotic; we regenerate it empirically: for
   each method and each n we build the structure over its own simulated
   network, drive the same query/update mix, and report the measured
   series next to the fitted growth shape and the paper's claim. *)

module Network = Skipweb_net.Network
module SG = Skipweb_skipgraph.Skip_graph
module NoN = Skipweb_skipgraph.Non_skip_graph
module FT = Skipweb_skipgraph.Family_tree
module DS = Skipweb_skipgraph.Det_skipnet
module BSG = Skipweb_skipgraph.Bucket_skip_graph
module B1 = Skipweb_core.Blocked1d
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module C = Bench_common

type measurement = { q : float; u : float; m : float; c : float }

type method_spec = {
  label : string;
  paper_q : string;
  paper_u : string;
  paper_m : string;
  paper_c : string;
  run : seed:int -> n:int -> queries:int array -> updates:int array -> measurement;
}

let measure_net net ~items = (float_of_int (Network.max_memory net), Network.congestion net ~items)

let spec_skip_graph =
  {
    label = "skip graph / SkipNet";
    paper_q = "~O(log n)";
    paper_u = "~O(log n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let net = Network.create ~hosts:(n + Array.length updates + 4) in
        let g = SG.create ~net ~seed ~keys in
        let rng = Prng.create (seed + 1) in
        let q = C.mean_int_list (Array.to_list (Array.map (fun x -> (SG.search_from_random g ~rng x).SG.messages) queries)) in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list
            (Array.to_list (Array.map (fun k ->
                    let ci = SG.insert g k in
                    ci + SG.delete g k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_non =
  {
    label = "NoN skip graph";
    paper_q = "~O(log n/loglog n)";
    paper_u = "~O(log^2 n)";
    paper_m = "O(log^2 n)";
    paper_c = "O(log^2 n)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let net = Network.create ~hosts:(n + Array.length updates + 4) in
        let g = NoN.create ~net ~seed ~keys in
        let rng = Prng.create (seed + 1) in
        let q = C.mean_int_list (Array.to_list (Array.map (fun x -> (NoN.search_from_random g ~rng x).NoN.messages) queries)) in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list
            (Array.to_list (Array.map (fun k ->
                    let ci = NoN.insert g k in
                    ci + NoN.delete g k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_family =
  {
    label = "family tree (comparator)";
    paper_q = "~O(log n)";
    paper_u = "~O(log n)";
    paper_m = "O(1)";
    paper_c = "O(log n)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let net = Network.create ~hosts:(n + Array.length updates + 4) in
        let g = FT.create ~net ~seed ~keys in
        let rng = Prng.create (seed + 1) in
        let q =
          C.mean_int_list
            (Array.to_list
               (Array.map (fun x -> (FT.search g ~from:(Prng.int rng n) x).FT.messages) queries))
        in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list (Array.to_list (Array.map (fun k ->
                    let ci = FT.insert g k in
                    ci + FT.delete g k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_det =
  {
    label = "deterministic SkipNet";
    paper_q = "O(log n)";
    paper_u = "O(log^2 n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let net = Network.create ~hosts:((2 * n) + Array.length updates + 8) in
        let g = DS.create ~net ~keys in
        let rng = Prng.create (seed + 1) in
        let q =
          C.mean_int_list
            (Array.to_list
               (Array.map (fun x -> (DS.search g ~from:(1 + Prng.int rng n) x).DS.messages) queries))
        in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list
            (Array.to_list (Array.map (fun k ->
                    let ci = DS.insert g k in
                    ci + DS.delete g k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_bucket_sg =
  {
    label = "bucket skip graph (H=n/log n)";
    paper_q = "~O(log H)";
    paper_u = "~O(log H)";
    paper_m = "O(n/H + log H)";
    paper_c = "O(n/H + log H)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let buckets = max 2 (n / C.log2i n) in
        let net = Network.create ~hosts:(2 * buckets) in
        let g = BSG.create ~net ~seed ~keys ~buckets in
        let rng = Prng.create (seed + 1) in
        let q = C.mean_int_list (Array.to_list (Array.map (fun x -> (BSG.search g ~rng x).BSG.messages) queries)) in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list
            (Array.to_list (Array.map (fun k ->
                    let ci = BSG.insert g ~rng k in
                    ci + BSG.delete g ~rng k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_skipweb =
  {
    label = "skip-web (blocked, M=4log n)";
    paper_q = "~O(log n/loglog n)";
    paper_u = "~O(log n/loglog n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let net = Network.create ~hosts:n in
        let g = B1.build ~net ~seed ~m:(4 * C.log2i n) keys in
        let rng = Prng.create (seed + 1) in
        let q = C.mean_int_list (Array.to_list (Array.map (fun x -> (B1.query g ~rng x).B1.messages) queries)) in
        let m, c = measure_net net ~items:n in
        let u =
          C.mean_int_list (Array.to_list (Array.map (fun k ->
                    let ci = B1.insert g k in
                    ci + B1.delete g k) updates))
          /. 2.0
        in
        { q; u; m; c });
  }

let spec_bucket_skipweb =
  {
    label = "bucket skip-web (H=n/log n)";
    paper_q = "~O(log_M H)";
    paper_u = "~O(log_M H)";
    paper_m = "O(n/H + log H)";
    paper_c = "O(n/H + log H)";
    run =
      (fun ~seed ~n ~queries ~updates ->
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let hosts = max 2 (n / C.log2i n) in
        let net = Network.create ~hosts in
        let m = (n / hosts) + (4 * C.log2i hosts) in
        let g = B1.build ~net ~seed ~m keys in
        let rng = Prng.create (seed + 1) in
        let q = C.mean_int_list (Array.to_list (Array.map (fun x -> (B1.query g ~rng x).B1.messages) queries)) in
        let mm, c = measure_net net ~items:n in
        let u =
          C.mean_int_list (Array.to_list (Array.map (fun k ->
                    let ci = B1.insert g k in
                    ci + B1.delete g k) updates))
          /. 2.0
        in
        { q; u; m = mm; c });
  }

let all_specs =
  [ spec_skip_graph; spec_non; spec_family; spec_det; spec_bucket_sg; spec_skipweb; spec_bucket_skipweb ]

let run (cfg : C.config) =
  C.section "Table 1: one-dimensional structures (E1-E7)";
  Printf.printf
    "Cost model: messages counted per host boundary crossing; M = max stored\n\
     units on any host; C = M + n/H (static congestion, §1.1).\n";
  C.with_pool cfg @@ fun pool ->
  let results =
    List.map
      (fun spec ->
        let per_n =
          List.map
            (fun n ->
              (* Each seed replica builds its own network and structure,
                 so the replicas are independent end to end — including
                 their updates — and fan out over the --jobs pool as
                 whole units. [map_seeds] preserves seed order, so the
                 means below fold identically for any jobs count. *)
              let samples =
                C.map_seeds ?pool cfg.C.seeds
                  (fun seed ->
                    let queries = W.query_mix ~seed:(seed + 17) ~keys:(W.distinct_ints ~seed ~n ~bound:(100 * n)) ~n:cfg.C.queries ~bound:(100 * n) in
                    let updates =
                      C.fresh_keys ~seed ~count:cfg.C.updates ~bound:(100 * n)
                        ~existing:(W.distinct_ints ~seed ~n ~bound:(100 * n))
                    in
                    spec.run ~seed ~n ~queries ~updates)
              in
              let mean f = Skipweb_util.Stats.mean (List.map f samples) in
              {
                q = mean (fun s -> s.q);
                u = mean (fun s -> s.u);
                m = mean (fun s -> s.m);
                c = mean (fun s -> s.c);
              })
            cfg.C.sizes
        in
        (spec, per_n))
      all_specs
  in
  let table pick paper title =
    C.print_shape_table ~title ~sizes:cfg.C.sizes
      (List.map (fun (spec, per_n) -> (spec.label, List.map pick per_n, paper spec)) results)
  in
  table (fun r -> r.q) (fun s -> s.paper_q) "Table 1 / Q(n): expected query messages";
  table (fun r -> r.u) (fun s -> s.paper_u) "Table 1 / U(n): expected update messages";
  table (fun r -> r.m) (fun s -> s.paper_m) "Table 1 / M: max per-host memory (units)";
  table (fun r -> r.c) (fun s -> s.paper_c) "Table 1 / C(n): static congestion (M + n/H)"
