(* E15–E16: the structural figures.

   Figure 1 shows a skip list: we regenerate its statistics (expected
   height ≈ log2 n, geometric tower heights, O(log n) search cost).

   Figure 2 shows the 1-d skip-web level hierarchy: we print the level
   census (sets per level, elements per level, largest set) and the
   storage/replication accounting that makes each host hold O(log n). *)

module Network = Skipweb_net.Network
module SL = Skipweb_skiplist.Skip_list
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module C = Bench_common

module HInt = H.Make (I.Ints)

let figure1 (cfg : C.config) =
  C.section "Figure 1: the skip list (E15)";
  let height ~seed ~n =
    let t = SL.Int.create ~seed () in
    let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
    Array.iter (fun k -> SL.Int.insert t k k) keys;
    float_of_int (SL.Int.height t)
  in
  let search_cost ~seed ~n =
    let t = SL.Int.create ~seed () in
    let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
    Array.iter (fun k -> SL.Int.insert t k k) keys;
    let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:cfg.C.queries ~bound:(100 * n) in
    Stats.mean (Array.to_list (Array.map (fun q -> float_of_int (SL.Int.search_cost t q)) qs))
  in
  C.print_shape_table ~title:"skip list statistics" ~sizes:cfg.C.sizes
    [
      ( "height (levels)",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> height ~seed ~n)) cfg.C.sizes,
        "~log2 n" );
      ( "search pointer traversals",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> search_cost ~seed ~n)) cfg.C.sizes,
        "~O(log n)" );
    ];
  (* Tower height distribution at one size: geometric with ratio 1/2. *)
  let n = List.fold_left max 256 cfg.C.sizes in
  let t = SL.Int.create ~seed:5 () in
  let keys = W.distinct_ints ~seed:5 ~n ~bound:(100 * n) in
  Array.iter (fun k -> SL.Int.insert t k k) keys;
  let hist = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      match SL.Int.tower_height t k with
      | Some h -> Hashtbl.replace hist h (1 + (try Hashtbl.find hist h with Not_found -> 0))
      | None -> ())
    keys;
  let tbl = Tables.create ~title:(Printf.sprintf "tower heights, n = %d (geometric, ratio 1/2)" n)
      ~columns:[ "height"; "towers"; "fraction" ] in
  let rec levels_from h =
    match Hashtbl.find_opt hist h with
    | Some c ->
        Tables.add_row tbl
          [ string_of_int h; string_of_int c; Printf.sprintf "%.4f" (float_of_int c /. float_of_int n) ];
        levels_from (h + 1)
    | None -> ()
  in
  levels_from 1;
  Tables.print tbl

let figure2 (cfg : C.config) =
  C.section "Figure 2: the 1-d skip-web level hierarchy (E16)";
  let n = List.fold_left max 256 cfg.C.sizes in
  let keys = W.distinct_ints ~seed:7 ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  let h = HInt.build ~net ~seed:7 keys in
  let tbl =
    Tables.create
      ~title:(Printf.sprintf "level census, n = %d (sets halve per level)" n)
      ~columns:[ "level"; "sets"; "elements"; "largest set"; "mean set" ]
  in
  for level = 0 to HInt.levels h - 1 do
    let sizes = HInt.level_set_sizes h level in
    let total = List.fold_left ( + ) 0 sizes in
    Tables.add_row tbl
      [
        string_of_int level;
        string_of_int (List.length sizes);
        string_of_int total;
        string_of_int (List.fold_left max 0 sizes);
        Printf.sprintf "%.2f" (float_of_int total /. float_of_int (List.length sizes));
      ]
  done;
  Tables.print tbl;
  Printf.printf "total ranges across levels: %d (Θ(n log n) replicated storage)\n"
    (HInt.total_storage h);
  Printf.printf "hashed placement: busiest host stores %d units, mean %.1f (both O(log n))\n\n"
    (Network.max_memory net) (Network.mean_memory net);
  (* The blocked layout's storage accounting (gray nodes of Figure 2 are a
     host's block plus its cone). *)
  let net2 = Network.create ~hosts:n in
  let b = B1.build ~net:net2 ~seed:7 ~m:(4 * C.log2i n) keys in
  Printf.printf
    "blocked layout (M = %d): block size %d ranges, basic levels %s,\n\
     raw storage %d, with cone replication %d (x%.2f), busiest host %d units\n"
    (4 * C.log2i n) (B1.block_size b)
    (String.concat "," (List.map string_of_int (B1.basic_levels b)))
    (B1.total_storage b) (B1.replicated_storage b)
    (float_of_int (B1.replicated_storage b) /. float_of_int (B1.total_storage b))
    (B1.max_host_memory b)

let run (cfg : C.config) =
  figure1 cfg;
  figure2 cfg
