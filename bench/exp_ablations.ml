(* A2–A3: ablations of the design choices DESIGN.md calls out. A1,
   blocked vs arbitrary placement of the 1-d hierarchy, is a row of E13's
   table in exp_theorem2.ml.

   A2 — compressed vs uncompressed quadtrees: why compression is needed
        for Theorem 2 on adversarially deep inputs.
   A3 — the halving probability p: level count, storage and query cost as
        the random split is skewed away from 1/2. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module Cq = Skipweb_quadtree.Cqtree
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module C = Bench_common

module HInt = H.Make (I.Ints)
module HP2 = H.Make (I.Points2d)

let ablation_compression (cfg : C.config) =
  C.section "Ablation A2: compressed vs uncompressed quadtrees";
  Printf.printf
    "An uncompressed quadtree descends one cube depth per step, so its\n\
     sequential point-location cost is the located cell's cube depth; the\n\
     compressed skip-web pays its message count instead.\n\n";
  let sizes = [ 8; 12; 16; 20; 24; 28 ] in
  (* Queries that land next to the deep diagonal cluster — the cells whose
     uncompressed depth actually is Θ(n). *)
  let deep_queries ~seed ~n =
    let rng = Prng.create (seed + 2) in
    let pts = W.diagonal_points ~n ~dim:2 in
    Array.init cfg.C.queries (fun i ->
        let p = pts.(i mod n) in
        Skipweb_geom.Point.create
          [ Float.min 0.999 (p.(0) *. (1.0 +. Prng.float rng 0.4)); p.(1) ])
  in
  let skipweb_msgs ~seed ~n =
    let pts = W.diagonal_points ~n ~dim:2 in
    let net = Network.create ~hosts:(max 16 n) in
    let h = HP2.build ~net ~seed pts in
    let rng = Prng.create (seed + 1) in
    Stats.mean
      (Array.to_list
         (Array.map
            (fun q ->
              let _, stats = HP2.query h ~rng q in
              float_of_int stats.HP2.messages)
            (deep_queries ~seed ~n)))
  in
  let uncompressed_depth ~n =
    (* Cost of walking the uncompressed cube hierarchy to the located cell:
       one hop per cube depth. *)
    let pts = W.diagonal_points ~n ~dim:2 in
    let t = Cq.build ~dim:2 pts in
    Stats.mean
      (Array.to_list
         (Array.map
            (fun q ->
              let loc, _ = Cq.locate t q in
              let depth, _ = Cq.node_cube loc.Cq.node in
              float_of_int (depth + 1))
            (deep_queries ~seed:3 ~n)))
  in
  C.print_shape_table ~title:"diagonal (deep) inputs: messages/hops to locate" ~sizes
    [
      ("uncompressed descent (hops)", List.map (fun n -> uncompressed_depth ~n) sizes, "Θ(n)");
      ( "compressed skip-web (messages)",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun s -> skipweb_msgs ~seed:s ~n)) sizes,
        "~O(log n)" );
    ]

let ablation_p (cfg : C.config) =
  C.section "Ablation A3: halving probability p";
  let n = List.fold_left max 1024 cfg.C.sizes in
  let keys = W.distinct_ints ~seed:11 ~n ~bound:(100 * n) in
  let tbl =
    Tables.create
      ~title:(Printf.sprintf "1-d skip-web at n = %d under skewed splits" n)
      ~columns:[ "p"; "levels"; "total ranges"; "Q mean msgs"; "top-level max set" ]
  in
  List.iter
    (fun p ->
      let net = Network.create ~hosts:n in
      (* Built directly: the roster takes no [p], and A3 is its only caller. *)
      let h = HInt.build ~net ~seed:11 ~p keys in
      let rng = Prng.create 12 in
      let qs = W.query_mix ~seed:13 ~keys ~n:cfg.C.queries ~bound:(100 * n) in
      let q =
        Stats.mean
          (Array.to_list
             (Array.map
                (fun x ->
                  let _, stats = HInt.query h ~rng x in
                  float_of_int stats.HInt.messages)
                qs))
      in
      let top_sizes = HInt.level_set_sizes h (HInt.levels h - 1) in
      Tables.add_row tbl
        [
          Printf.sprintf "%.2f" p;
          string_of_int (HInt.levels h);
          string_of_int (HInt.total_storage h);
          Tables.cell_float q;
          string_of_int (List.fold_left max 0 top_sizes);
        ])
    [ 0.25; 0.5; 0.75 ];
  Tables.print tbl;
  Printf.printf
    "p = 1/2 minimizes the imbalance: skewed splits leave larger top-level sets\n\
     (more residual scanning) or more levels (more hops) for the same storage.\n"

let run (cfg : C.config) =
  ablation_compression cfg;
  ablation_p cfg
