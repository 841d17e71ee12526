(* E18: congestion — the C(n) = O(log n) claim for skip-webs.

   Static congestion (stored references + n/H query-start share) is in the
   Table 1 output; here we measure the dynamic side: per-host traffic under
   a uniform random query load. A well-balanced structure keeps the busiest
   host within a logarithmic factor of the mean. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module SG = Skipweb_skipgraph.Skip_graph
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module C = Bench_common

module HInt = H.Make (I.Ints)

let run (cfg : C.config) =
  C.section "Congestion under uniform query load (E18)";
  C.with_pool cfg @@ fun pool ->
  let n = List.fold_left max 256 cfg.C.sizes in
  let load = 10 * n in
  let keys = W.distinct_ints ~seed:3 ~n ~bound:(100 * n) in
  let qs = W.query_mix ~seed:4 ~keys ~n:load ~bound:(100 * n) in
  let drive label run_queries net =
    Network.reset_traffic net;
    run_queries ();
    Printf.printf
      "%-28s traffic: max %6d  mean %8.1f  max/mean %.2f   (%d queries on %d hosts)\n" label
      (Network.max_traffic net) (Network.mean_traffic net)
      (float_of_int (Network.max_traffic net) /. Float.max 1.0 (Network.mean_traffic net))
      load (Network.host_count net)
  in
  (* The skip-web query loads fan out over the --jobs pool: per-host
     traffic is committed through atomic counters as sums of visit
     deltas, so the congestion figures are bit-identical to the
     sequential drives for any jobs count. The baselines below draw
     per-query coins from a shared rng inside their loops, so they stay
     sequential. *)
  (* Blocked skip-web. *)
  let net1 = Network.create ~hosts:n in
  let b = B1.build ~net:net1 ~seed:5 ~m:(4 * C.log2i n) keys in
  let rng1 = Prng.create 6 in
  drive "blocked 1-d skip-web" (fun () -> ignore (B1.query_batch ?pool b ~rng:rng1 qs)) net1;
  (* Generic skip-web. *)
  let net2 = Network.create ~hosts:n in
  let h = HInt.build ~net:net2 ~seed:5 keys in
  let rng2 = Prng.create 6 in
  drive "generic 1-d skip-web" (fun () -> ignore (HInt.query_batch ?pool h ~rng:rng2 qs)) net2;
  (* Skip graph baseline. *)
  let net3 = Network.create ~hosts:n in
  let g = SG.create ~net:net3 ~seed:5 ~keys in
  let rng3 = Prng.create 6 in
  drive "skip graph" (fun () -> Array.iter (fun q -> ignore (SG.search_from_random g ~rng:rng3 q)) qs) net3;
  (* The family-tree comparator: O(1) degree but every search goes through
     the overlay root — the hotspot its Table 1 congestion column hides. *)
  let module FT = Skipweb_skipgraph.Family_tree in
  let net4 = Network.create ~hosts:n in
  let ft = FT.create ~net:net4 ~seed:5 ~keys in
  let rng4 = Prng.create 6 in
  drive "family tree (root hotspot)"
    (fun () -> Array.iter (fun q -> ignore (FT.search ft ~from:(Prng.int rng4 n) q)) qs)
    net4;
  (* Skewed demand: a Zipf(1.0) query mix hammers popular keys; the
     randomized level structure still spreads the load. *)
  let zipf = W.zipf_queries ~seed:9 ~keys ~n:load ~s:1.0 in
  let net5 = Network.create ~hosts:n in
  let b2 = B1.build ~net:net5 ~seed:5 ~m:(4 * C.log2i n) keys in
  let rng5 = Prng.create 6 in
  drive "blocked skip-web, Zipf load"
    (fun () -> ignore (B1.query_batch ?pool b2 ~rng:rng5 zipf))
    net5;
  Printf.printf
    "\nStatic congestion C(n) = max stored units + n/H:\n\
     blocked skip-web %.1f, generic skip-web %.1f, skip graph %.1f (all O(log n)-shaped)\n"
    (Network.congestion net1 ~items:n) (Network.congestion net2 ~items:n)
    (Network.congestion net3 ~items:n)
