(* E0: the rich query set of §1.

   The paper motivates skip-webs with a list of query types one network
   should support: exact match (set membership), one-dimensional nearest
   neighbor, range queries, string prefix queries, and point location.
   This experiment runs one of each against the appropriate skip-web and
   reports the message cost — the "it actually does all of that" table. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module C = Bench_common

module HP2 = H.Make (I.Points2d)
module HStr = H.Make (I.Strings)

(* Not through the roster: the membership check reads [predecessor] and
   the range row calls [B1.range], neither of which the driver returns. *)
let one_d ~seed ~n ~queries ~measure =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  let g = B1.build ~net ~seed ~m:(4 * C.log2i n) keys in
  let rng = Prng.create (seed + 1) in
  measure g keys rng queries

let run (cfg : C.config) =
  C.section "The rich query set of the introduction (E0)";
  C.with_pool cfg @@ fun pool ->
  let sizes = List.filter (fun n -> n <= 4096) cfg.C.sizes in
  (* Query phases fan out over the --jobs pool via [query_batch]; origins
     are pre-drawn inside the batch, so costs and the in-line answer
     checks are bit-identical to the sequential loops for any jobs
     count. Seed replicas stay sequential here (the pool is not
     re-entrant; it is spent on the inner query loops). *)
  let membership =
    List.map
      (fun n ->
        C.mean_over_seeds cfg.C.seeds (fun seed ->
            one_d ~seed ~n ~queries:cfg.C.queries ~measure:(fun g keys rng count ->
                let qs = Array.init count (fun i -> keys.(i * 7919 mod n)) in
                let rs = B1.query_batch ?pool g ~rng qs in
                Array.iteri (fun i r -> assert (r.B1.predecessor = Some qs.(i))) rs;
                Stats.mean (Array.to_list (Array.map (fun (r : B1.search_result) -> float_of_int r.B1.messages) rs)))))
      sizes
  in
  let nearest =
    List.map
      (fun n ->
        C.mean_over_seeds cfg.C.seeds (fun seed ->
            one_d ~seed ~n ~queries:cfg.C.queries ~measure:(fun g keys rng count ->
                let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:count ~bound:(100 * n) in
                let rs = B1.query_batch ?pool g ~rng qs in
                Stats.mean (Array.to_list (Array.map (fun (r : B1.search_result) -> float_of_int r.B1.messages) rs)))))
      sizes
  in
  let range16 =
    List.map
      (fun n ->
        C.mean_over_seeds cfg.C.seeds (fun seed ->
            one_d ~seed ~n ~queries:(cfg.C.queries / 4) ~measure:(fun g keys rng count ->
                let costs = ref [] in
                for i = 0 to count - 1 do
                  let at = i * 37 mod (n - 20) in
                  let r = B1.range g ~rng ~lo:keys.(at) ~hi:keys.(at + 15) in
                  assert (List.length r.B1.keys = 16);
                  costs := float_of_int r.B1.messages :: !costs
                done;
                Stats.mean !costs)))
      sizes
  in
  let prefix =
    List.map
      (fun n ->
        C.mean_over_seeds cfg.C.seeds (fun seed ->
            let strs = W.isbn_strings ~seed ~n ~publishers:16 in
            let net = Network.create ~hosts:n in
            let h = HStr.build ~net ~seed strs in
            let rng = Prng.create (seed + 1) in
            let qs =
              Array.init (min 16 cfg.C.queries) (fun p -> Printf.sprintf "978-%d-" p)
            in
            let rs = HStr.query_batch ?pool h ~rng qs in
            Stats.mean
              (Array.to_list
                 (Array.map (fun (_, stats) -> float_of_int stats.HStr.messages) rs))))
      sizes
  in
  let point_location =
    List.map
      (fun n ->
        C.mean_over_seeds cfg.C.seeds (fun seed ->
            let pts = W.uniform_points ~seed ~n ~dim:2 in
            let net = Network.create ~hosts:n in
            let h = HP2.build ~net ~seed pts in
            let rng = Prng.create (seed + 1) in
            let qs = W.uniform_query_points ~seed:(seed + 2) ~n:cfg.C.queries ~dim:2 in
            let rs = HP2.query_batch ?pool h ~rng qs in
            Stats.mean
              (Array.to_list
                 (Array.map (fun (_, stats) -> float_of_int stats.HP2.messages) rs))))
      sizes
  in
  C.print_shape_table ~title:"message cost per query type (answers verified in-line)" ~sizes
    [
      ("exact match / membership (1-d)", membership, "~O(log n/loglog n)");
      ("nearest neighbor (1-d)", nearest, "~O(log n/loglog n)");
      ("range query, 16 keys (1-d)", range16, "locate + k/B");
      ("string prefix (ISBN publisher)", prefix, "~O(log n)");
      ("point location (2-d)", point_location, "~O(log n)");
    ]
