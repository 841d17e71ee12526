(* E7/E7b: bucket skip-webs — the memory/message trade-off of Table 1
   row 7 and the §1.3 constant-cost regime.

   With H < n hosts of memory M, query cost is O(log_M H). Two sweeps:
   (1) fix n, grow M: messages fall like log H / log M;
   (2) fix M = n^eps: messages stay constant as n grows. *)

module Network = Skipweb_net.Network
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module C = Bench_common

let measure ~seed ~n ~hosts ~m ~queries =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts in
  let g = B1.build ~net ~seed ~m keys in
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
  let msgs =
    Stats.mean (Array.to_list (Array.map (fun q -> float_of_int (B1.query g ~rng q).B1.messages) qs))
  in
  (msgs, B1.max_host_memory g)

let run (cfg : C.config) =
  C.section "Bucket skip-webs: the M sweep (E7) and the constant-cost regime (E7b)";
  (* Sweep M at fixed n. *)
  let n = List.fold_left max 1024 cfg.C.sizes in
  let tbl =
    Tables.create
      ~title:(Printf.sprintf "M sweep at n = %d: Q vs memory (H scaled as n log n / M)" n)
      ~columns:[ "M target"; "hosts H"; "Q mean msgs"; "max host mem"; "log_M H (predicted shape)" ]
  in
  List.iter
    (fun m ->
      let hosts = max 4 (min n (n * C.log2i n / m)) in
      let q, mem =
        let samples = List.map (fun seed -> measure ~seed ~n ~hosts ~m ~queries:cfg.C.queries) cfg.C.seeds in
        (Stats.mean (List.map fst samples), List.fold_left max 0 (List.map snd samples))
      in
      let predicted = Float.log (float_of_int hosts) /. Float.log (float_of_int (max 2 m)) in
      Tables.add_row tbl
        [
          string_of_int m;
          string_of_int hosts;
          Tables.cell_float q;
          string_of_int mem;
          Tables.cell_float predicted;
        ])
    (List.sort_uniq compare
       [
         C.log2i n;
         4 * C.log2i n;
         int_of_float (Float.pow (float_of_int n) 0.25);
         int_of_float (Float.pow (float_of_int n) 0.5);
         int_of_float (Float.pow (float_of_int n) 0.75);
       ]);
  Tables.print tbl;
  (* Constant-cost regime: M = n^eps, growing n. *)
  List.iter
    (fun eps ->
      let series =
        List.map
          (fun n ->
            let m = max 8 (int_of_float (Float.pow (float_of_int n) eps)) in
            let hosts = max 4 (min n (n * C.log2i n / m)) in
            C.mean_over_seeds cfg.C.seeds (fun seed ->
                fst (measure ~seed ~n ~hosts ~m ~queries:cfg.C.queries)))
          cfg.C.sizes
      in
      C.print_shape_table
        ~title:(Printf.sprintf "E7b: M = n^%.2f — Q(n) should be O(1)" eps)
        ~sizes:cfg.C.sizes
        [ (Printf.sprintf "Q(n), M=n^%.2f" eps, series, "O(1)") ])
    [ 0.25; 0.5 ]
