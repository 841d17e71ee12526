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

(* A row supplies its host count (from n and the update count) and a
   constructor that returns its query closure and its insert-then-delete
   closure, both over the shared [rng]; [measure] does the rest. *)
type method_spec = {
  label : string;
  paper_q : string;
  paper_u : string;
  paper_m : string;
  paper_c : string;
  hosts : n:int -> updates:int -> int;
  build : net:Network.t -> seed:int -> rng:Prng.t -> keys:int array -> (int -> int) * (int -> int);
}

(* Host count of the two H = n / log n rows. *)
let bucket_hosts n = max 2 (n / C.log2i n)

let measure spec ~seed ~n ~queries ~updates =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:(spec.hosts ~n ~updates:(Array.length updates)) in
  let query, update = spec.build ~net ~seed ~rng:(Prng.create (seed + 1)) ~keys in
  let mean_messages f xs = C.mean_int_list (Array.to_list (Array.map f xs)) in
  let q = mean_messages query queries in
  let m = float_of_int (Network.max_memory net) and c = Network.congestion net ~items:n in
  let u = mean_messages update updates /. 2.0 in
  { q; u; m; c }

(* A row's query closure and its insert-then-delete closure. *)
let closures query ~insert ~delete =
  ( query,
    fun k ->
      let ci = insert k in
      ci + delete k )

let one_host_each ~n ~updates = n + updates + 4

let spec_skip_graph =
  {
    label = "skip graph / SkipNet";
    paper_q = "~O(log n)";
    paper_u = "~O(log n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    hosts = one_host_each;
    build =
      (fun ~net ~seed ~rng ~keys ->
        let g = SG.create ~net ~seed ~keys in
        closures
          (fun x -> (SG.search_from_random g ~rng x).messages)
          ~insert:(SG.insert g) ~delete:(SG.delete g));
  }

let spec_non =
  {
    label = "NoN skip graph";
    paper_q = "~O(log n/loglog n)";
    paper_u = "~O(log^2 n)";
    paper_m = "O(log^2 n)";
    paper_c = "O(log^2 n)";
    hosts = one_host_each;
    build =
      (fun ~net ~seed ~rng ~keys ->
        let g = NoN.create ~net ~seed ~keys in
        closures
          (fun x -> (NoN.search_from_random g ~rng x).messages)
          ~insert:(NoN.insert g) ~delete:(NoN.delete g));
  }

let spec_family =
  {
    label = "family tree (comparator)";
    paper_q = "~O(log n)";
    paper_u = "~O(log n)";
    paper_m = "O(1)";
    paper_c = "O(log n)";
    hosts = one_host_each;
    build =
      (fun ~net ~seed ~rng ~keys ->
        let g = FT.create ~net ~seed ~keys in
        let n = Array.length keys in
        closures
          (fun x -> (FT.search g ~from:(Prng.int rng n) x).messages)
          ~insert:(FT.insert g) ~delete:(FT.delete g));
  }

let spec_det =
  {
    label = "deterministic SkipNet";
    paper_q = "O(log n)";
    paper_u = "O(log^2 n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    hosts = (fun ~n ~updates -> (2 * n) + updates + 8);
    build =
      (fun ~net ~seed:_ ~rng ~keys ->
        let g = DS.create ~net ~keys in
        let n = Array.length keys in
        closures
          (fun x -> (DS.search g ~from:(1 + Prng.int rng n) x).messages)
          ~insert:(DS.insert g) ~delete:(DS.delete g));
  }

let spec_bucket_sg =
  {
    label = "bucket skip graph (H=n/log n)";
    paper_q = "~O(log H)";
    paper_u = "~O(log H)";
    paper_m = "O(n/H + log H)";
    paper_c = "O(n/H + log H)";
    hosts = (fun ~n ~updates:_ -> 2 * bucket_hosts n);
    build =
      (fun ~net ~seed ~rng ~keys ->
        let g = BSG.create ~net ~seed ~keys ~buckets:(bucket_hosts (Array.length keys)) in
        closures
          (fun x -> (BSG.search g ~rng x).messages)
          ~insert:(BSG.insert g ~rng) ~delete:(BSG.delete g ~rng));
  }

let blocked_build ~m ~net ~seed ~rng ~keys =
  let g = B1.build ~net ~seed ~m keys in
  closures (fun x -> (B1.query g ~rng x).B1.messages) ~insert:(B1.insert g) ~delete:(B1.delete g)

let spec_skipweb =
  {
    label = "skip-web (blocked, M=4log n)";
    paper_q = "~O(log n/loglog n)";
    paper_u = "~O(log n/loglog n)";
    paper_m = "O(log n)";
    paper_c = "O(log n)";
    hosts = (fun ~n ~updates:_ -> n);
    build =
      (fun ~net ~seed ~rng ~keys ->
        blocked_build ~m:(4 * C.log2i (Array.length keys)) ~net ~seed ~rng ~keys);
  }

let spec_bucket_skipweb =
  {
    label = "bucket skip-web (H=n/log n)";
    paper_q = "~O(log_M H)";
    paper_u = "~O(log_M H)";
    paper_m = "O(n/H + log H)";
    paper_c = "O(n/H + log H)";
    hosts = (fun ~n ~updates:_ -> bucket_hosts n);
    build =
      (fun ~net ~seed ~rng ~keys ->
        let n = Array.length keys in
        let hosts = bucket_hosts n in
        blocked_build ~m:((n / hosts) + (4 * C.log2i hosts)) ~net ~seed ~rng ~keys);
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
                    measure spec ~seed ~n ~queries ~updates)
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
