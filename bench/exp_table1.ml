(* E1–E7: Table 1 of the paper — the seven one-dimensional structures
   compared on memory M, congestion C(n), query cost Q(n) and update cost
   U(n), all measured in the paper's message-cost model.

   The paper's Table 1 is asymptotic; we regenerate it empirically: for
   each method and each n we build the structure over its own simulated
   network, drive the same query/update mix, and report the measured
   series next to the fitted growth shape and the paper's claim. *)

module Network = Skipweb_net.Network
module R = Skipweb_roster.Roster
module W = Skipweb_workload.Workload
module C = Bench_common

type measurement = { q : float; u : float; m : float; c : float }

(* A row names its roster entry, its labels and the paper's claims, and
   supplies its host count (from n and the update count); [measure] does
   the rest. *)
type method_spec = {
  entry : R.entry;
  label : string;
  paper_q : string;
  paper_u : string;
  paper_m : string;
  paper_c : string;
  hosts : n:int -> updates:int -> int;
}

let measure spec ~seed ~n ~queries ~updates =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:(spec.hosts ~n ~updates:(Array.length updates)) in
  let d = R.build spec.entry ~net ~seed keys in
  let mean_messages f xs = C.mean_int_list (Array.to_list (Array.map f xs)) in
  let q = mean_messages (fun x -> snd (d.query x)) queries in
  let m = float_of_int (Network.max_memory net) and c = Network.congestion net ~items:n in
  let u =
    mean_messages
      (fun k ->
        let ci = d.insert k in
        ci + d.delete k)
      updates
    /. 2.0
  in
  { q; u; m; c }

let one_host_each ~n ~updates = n + updates + 4

let spec entry label (paper_q, paper_u, paper_m, paper_c) hosts =
  { entry; label; paper_q; paper_u; paper_m; paper_c; hosts }

let all_specs =
  [
    spec R.Skip_graph "skip graph / SkipNet" ("~O(log n)", "~O(log n)", "O(log n)", "O(log n)")
      one_host_each;
    spec R.Non_skip_graph "NoN skip graph"
      ("~O(log n/loglog n)", "~O(log^2 n)", "O(log^2 n)", "O(log^2 n)")
      one_host_each;
    spec R.Family_tree "family tree (comparator)" ("~O(log n)", "~O(log n)", "O(1)", "O(log n)")
      one_host_each;
    spec R.Det_skipnet "deterministic SkipNet" ("O(log n)", "O(log^2 n)", "O(log n)", "O(log n)")
      (fun ~n ~updates -> (2 * n) + updates + 8);
    spec R.Bucket_skip_graph "bucket skip graph (H=n/log n)"
      ("~O(log H)", "~O(log H)", "O(n/H + log H)", "O(n/H + log H)")
      (fun ~n ~updates:_ -> 2 * R.default_buckets n);
    spec R.Skipweb "skip-web (blocked, M=4log n)"
      ("~O(log n/loglog n)", "~O(log n/loglog n)", "O(log n)", "O(log n)")
      (fun ~n ~updates:_ -> n);
    spec R.Bucket_skipweb "bucket skip-web (H=n/log n)"
      ("~O(log_M H)", "~O(log_M H)", "O(n/H + log H)", "O(n/H + log H)")
      (fun ~n ~updates:_ -> R.default_buckets n);
  ]

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
