(* Warehouse index: the bucket skip-web regime (Table 1 row 7, §1.3).

   A handful of beefy index servers — not one host per item — hold a large
   sorted key space. With per-host memory M = n^(1/2), the paper promises
   O(1) expected messages per lookup regardless of n; this example builds
   three sizes and shows the cost staying flat while a flat skip graph
   over the same data keeps growing.

   Run with: dune exec examples/warehouse_index.exe *)

module Network = Skipweb_net.Network
module R = Skipweb_roster.Roster
module W = Skipweb_workload.Workload

(* Mean messages over [qs] of [entry] built over [keys] on [net]; the
   roster draws every query's coins from one stream seeded 2. *)
let mean_messages entry ?m ~net keys qs =
  let d = R.build entry ~net ~seed:1 ?m keys in
  float_of_int (Array.fold_left ( + ) 0 (d.R.query_all qs)) /. float_of_int (Array.length qs)

let () =
  Printf.printf "%8s | %6s | %6s | %22s | %22s\n" "items" "hosts" "M" "bucket skip-web msgs" "flat skip graph msgs";
  List.iter
    (fun n ->
      let keys = W.distinct_ints ~seed:99 ~n ~bound:(100 * n) in
      let m = int_of_float (Float.sqrt (float_of_int n)) in
      let hosts = max 4 (n * R.log2i n / m) in
      let net = Network.create ~hosts:(min n hosts) in
      let qs = W.query_mix ~seed:3 ~keys ~n:200 ~bound:(100 * n) in
      let web = mean_messages R.Bucket_skipweb ~m ~net keys qs in
      let sg = mean_messages R.Skip_graph ~net:(Network.create ~hosts:(n + 4)) keys qs in
      Printf.printf "%8d | %6d | %6d | %22.2f | %22.2f\n" n (Network.host_count net) m web sg)
    [ 1024; 4096; 16384 ];
  Printf.printf
    "\nWith M = sqrt(n) per host, lookups cost O(1) messages at every scale\n\
     (the paper's constant-cost regime); the flat H = n overlay keeps paying log n.\n"
