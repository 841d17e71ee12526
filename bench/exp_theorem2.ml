(* E12–E13: Theorem 2 — skip-web query complexity.

   General case: a skip-web over any structure with a set-halving lemma
   answers queries in O(log n) expected messages on n hosts with O(log n)
   memory — even when the underlying structure has Θ(n) depth (the
   adversarial workloads below). One-dimensional data with the blocking
   strategy improves to O(log n / log log n). *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module Cq = Skipweb_quadtree.Cqtree
module Ct = Skipweb_trie.Ctrie
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module C = Bench_common

module HP2 = H.Make (I.Points2d)
module HStr = H.Make (I.Strings)
module HSeg = H.Make (I.Segments)

let quad_messages ~seed ~n ~queries gen =
  let pts = gen ~seed ~n in
  let net = Network.create ~hosts:(max 16 (Array.length pts)) in
  let h = HP2.build ~net ~seed pts in
  let rng = Prng.create (seed + 1) in
  Stats.mean
    (Array.to_list
       (Array.map
          (fun q ->
            let _, stats = HP2.query h ~rng q in
            float_of_int stats.HP2.messages)
          queries))

let trie_messages ~seed ~n ~queries gen =
  let strs = gen ~seed ~n in
  let net = Network.create ~hosts:(max 16 (Array.length strs)) in
  let h = HStr.build ~net ~seed strs in
  let rng = Prng.create (seed + 1) in
  Stats.mean
    (Array.to_list
       (Array.map
          (fun q ->
            let _, stats = HStr.query h ~rng q in
            float_of_int stats.HStr.messages)
          queries))

let trap_messages ~seed ~n ~queries =
  let segs = W.disjoint_segments ~seed ~n in
  let net = Network.create ~hosts:(max 16 n) in
  let h = HSeg.build ~net ~seed segs in
  let rng = Prng.create (seed + 1) in
  let costs =
    Array.to_list queries
    |> List.filter_map (fun q ->
           match
             let _, stats = HSeg.query h ~rng q in
             Some stats.HSeg.messages
           with
           | exception Failure _ -> None
           | v -> Option.map float_of_int v)
  in
  Stats.mean costs

let run (cfg : C.config) =
  C.section "Theorem 2: skip-web query complexity (E12-E13)";
  C.with_pool cfg @@ fun pool ->
  (* Multi-dimensional: O(log n) messages, depth-independent. *)
  let quad_sizes = cfg.C.sizes in
  C.print_shape_table ~title:"quadtree skip-web Q(n) messages" ~sizes:quad_sizes
    [
      ( "uniform 2-d points",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                quad_messages ~seed ~n ~queries:(W.uniform_query_points ~seed:(seed + 2) ~n:cfg.C.queries ~dim:2)
                  (fun ~seed ~n -> W.uniform_points ~seed ~n ~dim:2)))
          quad_sizes,
        "~O(log n)" );
      ( "clustered 2-d points",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                quad_messages ~seed ~n ~queries:(W.uniform_query_points ~seed:(seed + 2) ~n:cfg.C.queries ~dim:2)
                  (fun ~seed ~n -> W.clustered_points ~seed ~n ~dim:2 ~clusters:6 ~radius:0.02)))
          quad_sizes,
        "~O(log n)" );
    ];
  (* The deep-input punchline: a diagonal point set has tree depth Θ(n),
     yet skip-web messages track the hierarchy height, not the depth. *)
  let deep_sizes = [ 8; 12; 16; 20; 24; 28 ] in
  C.print_shape_table ~title:"quadtree skip-web on Θ(n)-depth diagonal inputs" ~sizes:deep_sizes
    [
      ( "skip-web Q(n) messages",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                quad_messages ~seed ~n ~queries:(W.uniform_query_points ~seed:(seed + 2) ~n:cfg.C.queries ~dim:2)
                  (fun ~seed:_ ~n -> W.diagonal_points ~n ~dim:2)))
          deep_sizes,
        "~O(log n)" );
      ( "underlying tree depth",
        List.map
          (fun n -> float_of_int (Cq.depth (Cq.build ~dim:2 (W.diagonal_points ~n ~dim:2))))
          deep_sizes,
        "Θ(n)" );
    ];
  (* Tries. *)
  let trie_sizes = List.filter (fun n -> n <= 4096) cfg.C.sizes in
  C.print_shape_table ~title:"trie skip-web Q(n) messages" ~sizes:trie_sizes
    [
      ( "random strings",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                let strs = W.random_strings ~seed ~n ~alphabet:4 ~len:10 in
                trie_messages ~seed ~n
                  ~queries:(W.string_queries ~seed:(seed + 2) ~keys:strs ~n:cfg.C.queries)
                  (fun ~seed:_ ~n:_ -> strs)))
          trie_sizes,
        "~O(log n)" );
    ];
  let deep_trie_sizes = [ 16; 32; 48; 64 ] in
  C.print_shape_table ~title:"trie skip-web on Θ(n)-depth prefix-heavy inputs" ~sizes:deep_trie_sizes
    [
      ( "skip-web Q(n) messages",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                let strs = W.prefix_heavy_strings ~seed ~n ~alphabet:4 in
                trie_messages ~seed ~n
                  ~queries:(W.string_queries ~seed:(seed + 2) ~keys:strs ~n:cfg.C.queries)
                  (fun ~seed:_ ~n:_ -> strs)))
          deep_trie_sizes,
        "~O(log n)" );
      ( "underlying trie string depth",
        List.map
          (fun n ->
            float_of_int (Ct.max_string_depth (Ct.build (W.prefix_heavy_strings ~seed:1 ~n ~alphabet:4))))
          deep_trie_sizes,
        "Θ(n)" );
    ];
  (* Trapezoidal maps. *)
  let trap_sizes = List.filter (fun n -> n <= 1024) cfg.C.sizes in
  C.print_shape_table ~title:"trapezoidal-map skip-web Q(n) messages (point location)" ~sizes:trap_sizes
    [
      ( "disjoint segments",
        List.map
          (fun n ->
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                trap_messages ~seed ~n ~queries:(W.trapmap_query_points ~seed:(seed + 2) ~n:cfg.C.queries)))
          trap_sizes,
        "~O(log n)" );
    ];
  (* The set-halving constant in vivo: mean ranges visited per level while
     querying (Lemma 3/4 at work inside Theorem 2). *)
  let refinement_sizes = List.filter (fun n -> n <= 4096) cfg.C.sizes in
  let quad_refinement ~seed ~n =
    let pts = W.uniform_points ~seed ~n ~dim:2 in
    let net = Network.create ~hosts:n in
    let h = HP2.build ~net ~seed pts in
    HP2.mean_refinement_work h
      ~queries:(W.uniform_query_points ~seed:(seed + 2) ~n:cfg.C.queries ~dim:2)
      ~rng:(Prng.create (seed + 1))
  in
  let trie_refinement ~seed ~n =
    let strs = W.random_strings ~seed ~n ~alphabet:4 ~len:10 in
    let net = Network.create ~hosts:n in
    let h = HStr.build ~net ~seed strs in
    HStr.mean_refinement_work h
      ~queries:(W.string_queries ~seed:(seed + 2) ~keys:strs ~n:cfg.C.queries)
      ~rng:(Prng.create (seed + 1))
  in
  C.print_shape_table ~title:"mean ranges visited per level (the set-halving constant)"
    ~sizes:refinement_sizes
    [
      ( "quadtree skip-web",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun s -> quad_refinement ~seed:s ~n)) refinement_sizes,
        "O(1)" );
      ( "trie skip-web",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun s -> trie_refinement ~seed:s ~n)) refinement_sizes,
        "O(1)" );
    ];
  (* E13: the blocked 1-d structure vs its own log n / log log n claim; the
     normalized column Q / (log n / loglog n) should be flat. *)
  let blocked ~seed ~n =
    let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
    let net = Network.create ~hosts:n in
    let g = B1.build ~net ~seed ~m:(4 * C.log2i n) keys in
    let rng = Prng.create (seed + 1) in
    let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:cfg.C.queries ~bound:(100 * n) in
    (* The E13 query phase fans out over the --jobs pool; the batch
       pre-draws origins, so the measured costs are bit-identical to the
       sequential map for any jobs count. *)
    let rs = B1.query_batch ?pool g ~rng qs in
    Stats.mean (Array.to_list (Array.map (fun (r : B1.search_result) -> float_of_int r.B1.messages) rs))
  in
  let q_series = List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> blocked ~seed ~n)) cfg.C.sizes in
  let normalized =
    List.map2
      (fun n q ->
        let l = C.log2f n in
        q /. (l /. Float.max 1.0 (Float.log l /. Float.log 2.0)))
      cfg.C.sizes q_series
  in
  C.print_shape_table ~title:"blocked 1-d skip-web (M = 4 log n, H = n)" ~sizes:cfg.C.sizes
    [
      ("Q(n) messages", q_series, "~O(log n/loglog n)");
      ("Q(n) / (log n/loglog n)", normalized, "flat");
    ]
