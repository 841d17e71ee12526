(* E15–E16: the structural figures.

   Figure 1 shows a skip list: we regenerate its statistics (expected
   height ≈ log2 n, geometric tower heights, O(log n) search cost) on the
   skip list a skip graph's membership vectors define.

   Figure 2 shows the 1-d skip-web level hierarchy: we print the level
   census (sets per level, elements per level, largest set) and the
   storage/replication accounting that makes each host hold O(log n). *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload
module Membership = Skipweb_util.Membership
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module C = Bench_common

module HInt = H.Make (I.Ints)

(* Figure 1's skip list is the all-zero prefix chain of a skip graph
   (Aspnes–Shah): the element at sorted position i, which a skip graph over
   [seed] gives id i, reaches level l iff the first l bits of its
   membership vector are 0. So its tower is 1 + its leading 0 bits, capped
   at 32. Returns the sorted keys and their towers. *)
let skip_list ~seed ~n =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  Array.sort compare keys;
  let v = Membership.create ~seed in
  let rec tower id h = if h < 32 && not (Membership.bit v ~id ~level:(h - 1)) then tower id (h + 1) else h in
  (keys, Array.init n (fun id -> tower id 1))

(* Pointer traversals of a search for [k]: one per level dropped from the
   header, plus one per step right along a level onto a key below [k]. *)
let search_cost (keys, towers) k =
  let n = Array.length keys in
  let rec next level j = if j < n && towers.(j) <= level then next level (j + 1) else j in
  let rec walk level x hops =
    let j = next level (x + 1) in
    if j < n && keys.(j) < k then walk level j (hops + 1) else (x, hops)
  in
  let rec descend level x hops =
    if level < 0 then hops
    else
      let x, hops = walk level x (hops + 1) in
      descend (level - 1) x hops
  in
  descend (Array.fold_left max 0 towers - 1) (-1) 0

let figure1 (cfg : C.config) =
  C.section "Figure 1: the skip list (E15)";
  let height ~seed ~n = float_of_int (Array.fold_left max 0 (snd (skip_list ~seed ~n))) in
  let mean_cost ~seed ~n =
    let sl = skip_list ~seed ~n in
    let qs = W.query_mix ~seed:(seed + 2) ~keys:(fst sl) ~n:cfg.C.queries ~bound:(100 * n) in
    Stats.mean (Array.to_list (Array.map (fun q -> float_of_int (search_cost sl q)) qs))
  in
  C.print_shape_table ~title:"skip list statistics" ~sizes:cfg.C.sizes
    [
      ( "height (levels)",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> height ~seed ~n)) cfg.C.sizes,
        "~log2 n" );
      ( "search pointer traversals",
        List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> mean_cost ~seed ~n)) cfg.C.sizes,
        "~O(log n)" );
    ];
  (* Tower height distribution at one size: geometric with ratio 1/2. *)
  let n = List.fold_left max 256 cfg.C.sizes in
  let hist = Array.make 33 0 in
  Array.iter (fun h -> hist.(h) <- hist.(h) + 1) (snd (skip_list ~seed:5 ~n));
  let tbl = Tables.create ~title:(Printf.sprintf "tower heights, n = %d (geometric, ratio 1/2)" n)
      ~columns:[ "height"; "towers"; "fraction" ] in
  let rec levels_from h =
    if h <= 32 && hist.(h) > 0 then begin
      Tables.add_row tbl
        [ string_of_int h; string_of_int hist.(h); Printf.sprintf "%.4f" (float_of_int hist.(h) /. float_of_int n) ];
      levels_from (h + 1)
    end
  in
  levels_from 1;
  Tables.print tbl

let figure2 (cfg : C.config) =
  C.section "Figure 2: the 1-d skip-web level hierarchy (E16)";
  let n = List.fold_left max 256 cfg.C.sizes in
  let keys = W.distinct_ints ~seed:7 ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  (* Not through the roster: the census and the block accounting read
     levels, set sizes and storage, which the driver does not expose. *)
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
