(* E18: congestion — the C(n) = O(log n) claim for skip-webs.

   Static congestion (stored references + n/H query-start share) is in the
   Table 1 output; here we measure the dynamic side: per-host traffic under
   a uniform random query load. A well-balanced structure keeps the busiest
   host within a logarithmic factor of the mean. *)

module Network = Skipweb_net.Network
module R = Skipweb_roster.Roster
module W = Skipweb_workload.Workload
module C = Bench_common

let run (cfg : C.config) =
  C.section "Congestion under uniform query load (E18)";
  C.with_pool cfg @@ fun pool ->
  let n = List.fold_left max 256 cfg.C.sizes in
  let load = 10 * n in
  let keys = W.distinct_ints ~seed:3 ~n ~bound:(100 * n) in
  let qs = W.query_mix ~seed:4 ~keys ~n:load ~bound:(100 * n) in
  (* Skewed demand: a Zipf(1.0) query mix hammers popular keys; the
     randomized level structure still spreads the load. *)
  let zipf = W.zipf_queries ~seed:9 ~keys ~n:load ~s:1.0 in
  (* Every structure is built with seed 5 on its own n hosts. The
     skip-web query loads fan out over the --jobs pool: per-host traffic
     is committed through atomic counters as sums of visit deltas, so the
     congestion figures are bit-identical to the sequential drives for
     any jobs count. The overlays draw per-query coins from the driver's
     one rng, so they stay sequential. The family-tree comparator has
     O(1) degree but every search goes through the overlay root — the
     hotspot its Table 1 congestion column hides. *)
  let drive (label, entry, qs) =
    let net = Network.create ~hosts:n in
    let d = R.build entry ~net ~seed:5 keys in
    Network.reset_traffic net;
    ignore (d.query_all ?pool qs);
    Printf.printf
      "%-28s traffic: max %6d  mean %8.1f  max/mean %.2f   (%d queries on %d hosts)\n" label
      (Network.max_traffic net) (Network.mean_traffic net)
      (float_of_int (Network.max_traffic net) /. Float.max 1.0 (Network.mean_traffic net))
      load (Network.host_count net);
    Network.congestion net ~items:n
  in
  let static =
    List.map drive
      [
        ("blocked 1-d skip-web", R.Skipweb, qs);
        ("generic 1-d skip-web", R.Skipweb_generic, qs);
        ("skip graph", R.Skip_graph, qs);
        ("family tree (root hotspot)", R.Family_tree, qs);
        ("blocked skip-web, Zipf load", R.Skipweb, zipf);
      ]
  in
  Printf.printf
    "\nStatic congestion C(n) = max stored units + n/H:\n\
     blocked skip-web %.1f, generic skip-web %.1f, skip graph %.1f (all O(log n)-shaped)\n"
    (List.nth static 0) (List.nth static 1) (List.nth static 2)
