(* E14: update costs in a skip-web (§4).

   Insertion pays a locate (one query) plus O(1) linking messages per
   level: O(log n) expected messages for quadtrees, tries and generic 1-d
   sets, and O(log n / log log n) for blocked 1-d data, where only basic
   levels require fresh messages. Deletion mirrors insertion. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module R = Skipweb_roster.Roster
module W = Skipweb_workload.Workload
module Point = Skipweb_geom.Point
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module C = Bench_common

module HP2 = H.Make (I.Points2d)
module HStr = H.Make (I.Strings)

let mean_updates inserts deletes = (Stats.mean inserts +. Stats.mean deletes) /. 2.0

(* The two 1-d skip-webs, built through the roster. *)
let one_d entry ~seed ~n ~updates =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let d = R.build entry ~net:(Network.create ~hosts:n) ~seed keys in
  let fresh = C.fresh_keys ~seed ~count:updates ~bound:(100 * n) ~existing:keys in
  let ins = Array.to_list (Array.map (fun k -> float_of_int (d.R.insert k)) fresh) in
  let del = Array.to_list (Array.map (fun k -> float_of_int (d.R.delete k)) fresh) in
  mean_updates ins del

let quad_2d ~seed ~n ~updates =
  let pts = W.uniform_points ~seed ~n ~dim:2 in
  let net = Network.create ~hosts:n in
  let h = HP2.build ~net ~seed pts in
  let rng = Prng.create (seed + 5) in
  let fresh =
    Array.init updates (fun _ -> Point.create [ Prng.float rng 1.0; Prng.float rng 1.0 ])
  in
  let ins = Array.to_list (Array.map (fun p -> float_of_int (HP2.insert h p)) fresh) in
  let del = Array.to_list (Array.map (fun p -> float_of_int (HP2.remove h p)) fresh) in
  mean_updates ins del

let trie_updates ~seed ~n ~updates =
  let strs = W.random_strings ~seed ~n ~alphabet:4 ~len:10 in
  let net = Network.create ~hosts:n in
  let h = HStr.build ~net ~seed strs in
  let fresh = Array.init updates (fun i -> Printf.sprintf "zz%08d" i) in
  let ins = Array.to_list (Array.map (fun s -> float_of_int (HStr.insert h s)) fresh) in
  let del = Array.to_list (Array.map (fun s -> float_of_int (HStr.remove h s)) fresh) in
  mean_updates ins del

let run (cfg : C.config) =
  C.section "Updates in a skip-web (E14, §4)";
  let sizes = List.filter (fun n -> n <= 4096) cfg.C.sizes in
  let series f = List.map (fun n -> C.mean_over_seeds cfg.C.seeds (fun seed -> f ~seed ~n ~updates:cfg.C.updates)) sizes in
  C.print_shape_table ~title:"U(n): mean update messages (insert/delete averaged)" ~sizes
    [
      ("1-d generic skip-web", series (one_d R.Skipweb_generic), "~O(log n)");
      ("1-d blocked skip-web", series (one_d R.Skipweb), "~O(log n/loglog n)");
      ("quadtree skip-web", series quad_2d, "~O(log n)");
      ("trie skip-web", series trie_updates, "~O(log n)");
    ]
