(* Tests for Skipweb_core: the generic hierarchy (§2.3–2.5, §4), its four
   instantiations (§3), and the blocked 1-d structure (§2.4.1). *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module Lk = Skipweb_linklist.Linklist
module Cq = Skipweb_quadtree.Cqtree
module Ct = Skipweb_trie.Ctrie
module TM = Skipweb_trapmap.Trapmap
module Point = Skipweb_geom.Point
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))

module HInt = H.Make (I.Ints)
module HP2 = H.Make (I.Points2d)
module HP3 = H.Make (I.Points3d)
module HStr = H.Make (I.Strings)
module HSeg = H.Make (I.Segments)

let keys n = W.distinct_ints ~seed:5 ~n ~bound:(100 * n)

(* ------- generic hierarchy over sorted sets ------- *)

let test_hint_build () =
  let net = Network.create ~hosts:256 in
  let h = HInt.build ~net ~seed:3 (keys 256) in
  HInt.check_invariants h;
  checki "size" 256 (HInt.size h);
  checkb "levels = ceil log2 n + 1" true (HInt.levels h = 9);
  checkb "storage O(n log n)" true
    (HInt.total_storage h > 256 && HInt.total_storage h < 40 * 256)

let test_hint_level_halving () =
  let net = Network.create ~hosts:1024 in
  let h = HInt.build ~net ~seed:4 (keys 1024) in
  (* Figure 2: each level's sets together hold every element, and the mean
     set size halves per level. *)
  for level = 0 to HInt.levels h - 1 do
    let sizes = HInt.level_set_sizes h level in
    checki "level partitions" 1024 (List.fold_left ( + ) 0 sizes)
  done;
  let top_sizes = HInt.level_set_sizes h (HInt.levels h - 1) in
  let top_max = List.fold_left max 0 top_sizes in
  checkb "top-level sets O(1)" true (top_max <= 8)

let test_hint_query_correct () =
  let net = Network.create ~hosts:512 in
  let ks = keys 512 in
  let h = HInt.build ~net ~seed:6 ks in
  let rng = Prng.create 7 in
  let queries = W.query_mix ~seed:8 ~keys:ks ~n:300 ~bound:51_200 in
  Array.iter
    (fun q ->
      let answer, stats = HInt.query h ~rng q in
      check_opt "nearest" (Lk.nearest ks q) answer;
      checkb "visited >= levels" true (stats.HInt.ranges_visited >= HInt.levels h);
      checki "per-level list length" (HInt.levels h) (List.length stats.HInt.per_level_visits))
    queries

let test_hint_messages_logarithmic () =
  let net = Network.create ~hosts:4096 in
  let ks = keys 4096 in
  let h = HInt.build ~net ~seed:9 ks in
  let rng = Prng.create 10 in
  let total = ref 0 in
  for i = 0 to 199 do
    let _, stats = HInt.query h ~rng (i * 997) in
    total := !total + stats.HInt.messages
  done;
  let mean = float_of_int !total /. 200.0 in
  (* 13 levels; ~1-2 messages per level under hashed placement. *)
  checkb "messages O(log n)" true (mean > 4.0 && mean < 45.0)

let test_hint_memory_balanced () =
  let net = Network.create ~hosts:512 in
  let _ = HInt.build ~net ~seed:11 (keys 512) in
  (* Hashed placement: max per-host memory is O(log n) w.h.p. *)
  checkb "max host memory O(log n)" true (Network.max_memory net <= 8 * 10)

let test_hint_insert_remove () =
  let net = Network.create ~hosts:128 in
  let ks = keys 128 in
  let h = HInt.build ~net ~seed:12 ks in
  let cost = HInt.insert h 987_654 in
  checkb "insert cost positive" true (cost > 0);
  HInt.check_invariants h;
  checki "size grew" 129 (HInt.size h);
  let rng = Prng.create 13 in
  let answer, _ = HInt.query h ~rng 987_654 in
  check_opt "inserted key found" (Some 987_654) answer;
  let dcost = HInt.remove h 987_654 in
  checkb "remove cost positive" true (dcost > 0);
  HInt.check_invariants h;
  checki "size restored" 128 (HInt.size h);
  checki "duplicate insert is free" 0 (HInt.insert h ks.(0));
  checki "absent remove is free" 0 (HInt.remove h 555_555_555)

let test_hint_grow_from_empty () =
  let net = Network.create ~hosts:64 in
  let h = HInt.build ~net ~seed:14 [||] in
  (* An empty hierarchy has no origin to draw: a non-empty batch raises,
     an empty one is answered, with or without a pool. *)
  Skipweb_util.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun pool ->
          Alcotest.check_raises "batch on empty raises"
            (Invalid_argument "Hierarchy.query_batch: empty structure") (fun () ->
              ignore (HInt.query_batch ?pool h ~rng:(Prng.create 1) [| 5 |]));
          checki "empty batch on empty" 0
            (Array.length (HInt.query_batch ?pool h ~rng:(Prng.create 1) [||])))
        [ None; pool ]);
  for k = 1 to 40 do
    ignore (HInt.insert h (k * 11))
  done;
  HInt.check_invariants h;
  checki "all inserted" 40 (HInt.size h);
  checkb "levels grew" true (HInt.levels h >= 6);
  let rng = Prng.create 15 in
  let answer, _ = HInt.query h ~rng 112 in
  check_opt "nearest after growth" (Some 110) answer

(* Regression: remove must shrink the level hierarchy back to
   ceil(log2 n) + 1 levels — the seed implementation kept dead levels
   forever after heavy deletion, inflating linking costs and per-host
   memory. *)
let test_hint_shrink_top () =
  let required_top n =
    let rec go k = if 1 lsl k >= max 1 n then k else go (k + 1) in
    go 0
  in
  let net = Network.create ~hosts:256 in
  let ks = W.distinct_ints ~seed:80 ~n:1024 ~bound:200_000 in
  let h = HInt.build ~net ~seed:81 ks in
  checki "levels at 1024" (required_top 1024 + 1) (HInt.levels h);
  Array.iteri (fun i k -> if i >= 16 then ignore (HInt.remove h k)) ks;
  checki "size after deletion" 16 (HInt.size h);
  checki "levels shrink to required" (required_top 16 + 1) (HInt.levels h);
  HInt.check_invariants h;
  (* The survivors are still fully queryable. *)
  let rng = Prng.create 82 in
  Array.iter
    (fun k ->
      let answer, _ = HInt.query h ~rng k in
      check_opt "survivor found after shrink" (Some k) answer)
    (Array.sub ks 0 16);
  (* Growing again from the shrunk state is sound too. *)
  for j = 1 to 100 do
    ignore (HInt.insert h (500_000 + j))
  done;
  checki "levels regrow" (required_top 116 + 1) (HInt.levels h);
  HInt.check_invariants h

let test_hint_halving_ablation () =
  (* A3: a biased halving probability still yields a correct structure. *)
  let net = Network.create ~hosts:256 in
  let ks = keys 256 in
  let h = HInt.build ~net ~seed:16 ~p:0.25 ks in
  HInt.check_invariants h;
  let rng = Prng.create 17 in
  Array.iter
    (fun q ->
      let answer, _ = HInt.query h ~rng q in
      check_opt "nearest under p=0.25" (Lk.nearest ks q) answer)
    (W.query_mix ~seed:18 ~keys:ks ~n:100 ~bound:25_600)

(* ------- hierarchy over quadtrees (Theorem 2 for §3.1) ------- *)

let test_hp2_point_location () =
  let net = Network.create ~hosts:512 in
  let pts = W.uniform_points ~seed:19 ~n:512 ~dim:2 in
  let h = HP2.build ~net ~seed:20 pts in
  HP2.check_invariants h;
  let oracle = Cq.build ~dim:2 pts in
  let rng = Prng.create 21 in
  let queries = W.uniform_query_points ~seed:22 ~n:150 ~dim:2 in
  Array.iter
    (fun q ->
      let answer, _ = HP2.query h ~rng q in
      let loc, _ = Cq.locate oracle q in
      let depth, _ = Cq.node_cube loc.Cq.node in
      checki "same located cell depth" depth answer.I.cell_depth)
    queries

let test_hp2_deep_input_stays_logarithmic () =
  (* Theorem 2's punchline: O(log n) messages even when the underlying
     quadtree has linear depth. *)
  let net = Network.create ~hosts:64 in
  let pts = W.diagonal_points ~n:25 ~dim:2 in
  let h = HP2.build ~net ~seed:23 pts in
  let oracle = Cq.build ~dim:2 pts in
  checkb "oracle is deep" true (Cq.depth oracle >= 20);
  let rng = Prng.create 24 in
  let total = ref 0 in
  let queries = W.uniform_query_points ~seed:25 ~n:100 ~dim:2 in
  Array.iter
    (fun q ->
      let _, stats = HP2.query h ~rng q in
      total := !total + stats.HP2.ranges_visited)
    queries;
  let mean = float_of_int !total /. 100.0 in
  (* levels = 5; expect a small constant per level, far below depth 20. *)
  checkb "visits stay logarithmic on deep input" true (mean < 18.0)

let test_hp3_octree () =
  let net = Network.create ~hosts:256 in
  let pts = W.uniform_points ~seed:26 ~n:256 ~dim:3 in
  let h = HP3.build ~net ~seed:27 pts in
  HP3.check_invariants h;
  let oracle = Cq.build ~dim:3 pts in
  let rng = Prng.create 28 in
  Array.iter
    (fun q ->
      let answer, _ = HP3.query h ~rng q in
      let loc, _ = Cq.locate oracle q in
      let depth, _ = Cq.node_cube loc.Cq.node in
      checki "octree located cell depth" depth answer.I.cell_depth)
    (W.uniform_query_points ~seed:29 ~n:80 ~dim:3)

let test_hp2_insert_remove () =
  let net = Network.create ~hosts:128 in
  let pts = W.uniform_points ~seed:30 ~n:100 ~dim:2 in
  let h = HP2.build ~net ~seed:31 pts in
  let extra = Point.create [ 0.111; 0.222 ] in
  let cost = HP2.insert h extra in
  checkb "insert cost positive" true (cost > 0);
  HP2.check_invariants h;
  let rng = Prng.create 32 in
  let answer, _ = HP2.query h ~rng extra in
  checkb "inserted point located" true
    (match answer.I.cell_point with Some p -> Point.dist p extra < 1e-6 | None -> false);
  ignore (HP2.remove h extra);
  HP2.check_invariants h;
  checki "size restored" 100 (HP2.size h)

(* ------- hierarchy over tries (Theorem 2 for §3.2) ------- *)

let test_hstr_answers () =
  let net = Network.create ~hosts:512 in
  let strs = W.random_strings ~seed:33 ~n:400 ~alphabet:3 ~len:8 in
  let h = HStr.build ~net ~seed:34 strs in
  HStr.check_invariants h;
  let oracle = Ct.build strs in
  let rng = Prng.create 35 in
  Array.iter
    (fun q ->
      let answer, _ = HStr.query h ~rng q in
      Alcotest.(check string) "lcp" (Ct.longest_common_prefix oracle q) answer.I.lcp;
      checki "matches" (Ct.count_with_prefix oracle q) answer.I.matches)
    (W.string_queries ~seed:36 ~keys:strs ~n:200)

let test_hstr_deep_input () =
  let net = Network.create ~hosts:64 in
  let strs = W.prefix_heavy_strings ~seed:37 ~n:48 ~alphabet:4 in
  let h = HStr.build ~net ~seed:38 strs in
  let oracle = Ct.build strs in
  checkb "oracle trie is deep" true (Ct.max_string_depth oracle >= 48);
  let rng = Prng.create 39 in
  let total = ref 0 in
  Array.iter
    (fun q ->
      let _, stats = HStr.query h ~rng q in
      total := !total + stats.HStr.ranges_visited)
    (W.string_queries ~seed:40 ~keys:strs ~n:100);
  checkb "visits logarithmic on deep trie" true (float_of_int !total /. 100.0 < 25.0)

let test_hstr_insert_remove () =
  let net = Network.create ~hosts:64 in
  let strs = W.random_strings ~seed:41 ~n:60 ~alphabet:3 ~len:6 in
  let h = HStr.build ~net ~seed:42 strs in
  ignore (HStr.insert h "zzzybra");
  HStr.check_invariants h;
  let rng = Prng.create 43 in
  let answer, _ = HStr.query h ~rng "zzzybra" in
  Alcotest.(check string) "inserted string found" "zzzybra" answer.I.lcp;
  ignore (HStr.remove h "zzzybra");
  HStr.check_invariants h;
  checki "size restored" 60 (HStr.size h)

(* ------- hierarchy over trapezoidal maps (Theorem 2 for §3.3) ------- *)

let test_hseg_point_location () =
  let net = Network.create ~hosts:256 in
  let segs = W.disjoint_segments ~seed:44 ~n:60 in
  let h = HSeg.build ~net ~seed:45 segs in
  HSeg.check_invariants h;
  let oracle = TM.build segs in
  let rng = Prng.create 46 in
  Array.iter
    (fun q ->
      match TM.locate_opt oracle q with
      | None -> ()
      | Some tr ->
          let answer, stats = HSeg.query h ~rng q in
          Alcotest.(check (option int))
            "same bounding segment above"
            (Option.map Skipweb_geom.Segment.id (TM.trap_top tr))
            answer.I.above;
          Alcotest.(check (option int))
            "same bounding segment below"
            (Option.map Skipweb_geom.Segment.id (TM.trap_bottom tr))
            answer.I.below;
          checkb "one range visited per level" true
            (stats.HSeg.ranges_visited <= 3 * HSeg.levels h))
    (W.trapmap_query_points ~seed:47 ~n:150)

let test_hseg_insert () =
  let net = Network.create ~hosts:128 in
  let segs = W.disjoint_segments ~seed:48 ~n:41 in
  let h = HSeg.build ~net ~seed:49 (Array.sub segs 0 40) in
  let cost = HSeg.insert h segs.(40) in
  checkb "segment insert cost positive" true (cost > 0);
  HSeg.check_invariants h;
  checki "size grew" 41 (HSeg.size h)

(* ------- rejected single inserts ------- *)

(* A key a level structure rejects raises at level 0, before the
   hierarchy registers it, so the hierarchy must read exactly as a twin
   that never saw the key: the same size and invariants, and after one
   later valid insert into both, the same per-host memory, answers and
   per-query messages. Only the rejected insert's locate may show, in
   the network's message total. *)
module Rejection (S : Skipweb_core.Range_structure.S) = struct
  module Hr = H.Make (S)

  let run ~what ~hosts ~seed keys ~bad ~expect ~valid queries =
    let net1 = Network.create ~hosts and net2 = Network.create ~hosts in
    let h1 = Hr.build ~net:net1 ~seed keys and h2 = Hr.build ~net:net2 ~seed keys in
    let before = Network.total_messages net1 in
    (match Hr.insert h1 bad with
    | _ -> Alcotest.failf "%s: the bad key was accepted" what
    | exception Invalid_argument msg -> Alcotest.(check string) (what ^ ": rejection") expect msg);
    let locate = Network.total_messages net1 - before in
    checki (what ^ ": size after the rejection") (Array.length keys) (Hr.size h1);
    Hr.check_invariants h1;
    ignore (Hr.insert h1 valid : int);
    ignore (Hr.insert h2 valid : int);
    Hr.check_invariants h1;
    checki (what ^ ": size") (Hr.size h2) (Hr.size h1);
    for host = 0 to hosts - 1 do
      checki (Printf.sprintf "%s: host %d memory" what host) (Network.memory net2 host)
        (Network.memory net1 host)
    done;
    checki (what ^ ": message total, less the rejected locate")
      (Network.total_messages net2) (Network.total_messages net1 - locate);
    let rng1 = Prng.create 7 and rng2 = Prng.create 7 in
    Array.iter
      (fun q ->
        let a1, st1 = Hr.query h1 ~rng:rng1 q and a2, st2 = Hr.query h2 ~rng:rng2 q in
        checkb (what ^ ": same answer") true (a1 = a2);
        checki (what ^ ": same messages") st2.Hr.messages st1.Hr.messages)
      queries

  (* A batch holding one rejected key [bad], placed mid-batch, stores what
     [insert_batch] documents: nothing when the hierarchy was empty, else
     exactly the batch's fresh keys that sort before [bad]. So the
     hierarchy must read as a twin given just those keys — the same size
     and invariants — and after both take the batch's valid keys again
     and one more single insert, the same per-host memory, message total,
     answers and per-query messages. Run into [keys] at jobs 1 and 2. *)
  let run_batch ~what ~hosts ~seed keys ~good ~bad ~expect ~valid queries =
    let half = Array.length good / 2 in
    let batch =
      Array.concat [ Array.sub good 0 half; [| bad |]; Array.sub good half (Array.length good - half) ]
    in
    let stored =
      if Array.length keys = 0 then [||]
      else Array.of_list (List.filter (fun k -> compare k bad < 0) (Array.to_list good))
    in
    List.iter
      (fun jobs ->
        Skipweb_util.Pool.with_pool ~jobs (fun pool ->
            let what =
              Printf.sprintf "%s batch into %d keys, jobs %d" what (Array.length keys) jobs
            in
            let net1 = Network.create ~hosts and net2 = Network.create ~hosts in
            let h1 = Hr.build ~net:net1 ~seed ?pool keys
            and h2 = Hr.build ~net:net2 ~seed ?pool keys in
            (match Hr.insert_batch ?pool h1 batch with
            | _ -> Alcotest.failf "%s: the bad key was accepted" what
            | exception Invalid_argument msg ->
                Alcotest.(check string) (what ^ ": rejection") expect msg);
            Hr.check_invariants h1;
            ignore (Hr.insert_batch ?pool h2 stored : int);
            checki (what ^ ": size after the rejection") (Hr.size h2) (Hr.size h1);
            for host = 0 to hosts - 1 do
              checki
                (Printf.sprintf "%s: host %d memory after the rejection" what host)
                (Network.memory net2 host) (Network.memory net1 host)
            done;
            List.iter
              (fun h ->
                ignore (Hr.insert_batch ?pool h good : int);
                ignore (Hr.insert h valid : int);
                Hr.check_invariants h)
              [ h1; h2 ];
            checki (what ^ ": size") (Hr.size h2) (Hr.size h1);
            for host = 0 to hosts - 1 do
              checki (Printf.sprintf "%s: host %d memory" what host) (Network.memory net2 host)
                (Network.memory net1 host)
            done;
            checki (what ^ ": message total") (Network.total_messages net2)
              (Network.total_messages net1);
            let rng1 = Prng.create 7 and rng2 = Prng.create 7 in
            Array.iter
              (fun q ->
                let a1, st1 = Hr.query h1 ~rng:rng1 q and a2, st2 = Hr.query h2 ~rng:rng2 q in
                checkb (what ^ ": same answer") true (a1 = a2);
                checki (what ^ ": same messages") st2.Hr.messages st1.Hr.messages)
              queries))
      [ 1; 2 ]
end

module Seg_rejection = Rejection (I.Segments)
module Pt_rejection = Rejection (I.Points2d)

(* The keys the contract suite's [Segments] case rejects against a
   stored segment [s] (crossing it, sharing its left abscissa, leaving
   the square), each with the message it raises. *)
let bad_segments s =
  List.map2
    (fun (what, expect) bad -> (what, bad, expect))
    [
      ("crossing", "Trapmap: segments must be non-crossing");
      ("shared abscissa", "Trapmap: endpoint x-coordinates must be pairwise distinct");
      ("outside the square", "Trapmap: segment endpoints must lie strictly inside the unit square");
    ]
    (Test_contract.Segments_case.rejected [ s ])

let test_rejected_segment_insert () =
  let segs = W.disjoint_segments ~seed:48 ~n:21 in
  let base = Array.sub segs 0 20 in
  List.iter
    (fun (what, bad, expect) ->
      Seg_rejection.run ~what ~hosts:128 ~seed:49 base ~bad ~expect ~valid:segs.(20)
        (W.trapmap_query_points ~seed:50 ~n:60))
    (bad_segments segs.(0))

let test_rejected_point_insert () =
  let pts = W.uniform_points ~seed:51 ~n:60 ~dim:2 in
  Pt_rejection.run ~what:"wrong dimension" ~hosts:64 ~seed:52 (Array.sub pts 0 59)
    ~bad:[| 0.25; 0.5; 0.75 |] ~expect:"Instances.Points.locate: dimension mismatch" ~valid:pts.(59)
    (W.uniform_query_points ~seed:53 ~n:60 ~dim:2)

(* A probe of the wrong dimension is rejected by the top-level locate,
   before the descent opens a network session: a query, a box or k-NN
   scan and an insert bill each raise having sent no message, and the
   hierarchy still answers afterwards. *)
let test_wrong_dimension_probe () =
  let net = Network.create ~hosts:64 in
  let h = HP2.build ~net ~seed:52 (W.uniform_points ~seed:51 ~n:60 ~dim:2) in
  let bad = [| 0.25; 0.5; 0.75 |] in
  let rng = Prng.create 7 in
  let rejects what f =
    let before = Network.total_messages net in
    (match f () with
    | _ -> Alcotest.failf "%s: the wrong-dimension probe was accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) (what ^ ": rejection") "Instances.Points.locate: dimension mismatch" msg);
    checki (what ^ ": messages sent") before (Network.total_messages net)
  in
  rejects "query" (fun () -> ignore (HP2.query h ~rng bad));
  rejects "box scan" (fun () -> ignore (HP2.scan h ~rng (I.Box { lo = bad; hi = bad; limit = 4 })));
  rejects "k-NN scan" (fun () -> ignore (HP2.scan h ~rng (I.Knn { center = bad; k = 3 })));
  rejects "insert" (fun () -> ignore (HP2.insert h bad : int));
  checki "size" 60 (HP2.size h);
  HP2.check_invariants h;
  checkb "still answers" true ((snd (HP2.query h ~rng [| 0.5; 0.5 |])).HP2.messages > 0)

(* ------- rejected batches ------- *)

(* Each rejection kind in a batch, into an empty hierarchy (one bulk
   build) and into a non-empty one (level 0 first). The crossing and
   shared-abscissa keys clash with [segs.(0)], so the empty case's batch
   holds it. *)
let test_rejected_segment_batch () =
  let segs = W.disjoint_segments ~seed:48 ~n:32 in
  let queries = W.trapmap_query_points ~seed:50 ~n:60 in
  List.iter
    (fun (what, bad, expect) ->
      Seg_rejection.run_batch ~what ~hosts:128 ~seed:49 [||] ~good:(Array.sub segs 0 10) ~bad
        ~expect ~valid:segs.(20) queries;
      Seg_rejection.run_batch ~what ~hosts:128 ~seed:49 (Array.sub segs 0 20)
        ~good:(Array.sub segs 21 11) ~bad ~expect ~valid:segs.(20) queries)
    (bad_segments segs.(0))

let test_rejected_point_batch () =
  let pts = W.uniform_points ~seed:51 ~n:70 ~dim:2 in
  let queries = W.uniform_query_points ~seed:53 ~n:60 ~dim:2 in
  List.iter
    (fun (keys, good, expect) ->
      Pt_rejection.run_batch ~what:"wrong dimension" ~hosts:64 ~seed:52 keys ~good
        ~bad:[| 0.25; 0.5; 0.75 |] ~expect ~valid:pts.(69) queries)
    [
      ([||], Array.sub pts 0 10, "Cqtree.of_sorted: dimension mismatch");
      (Array.sub pts 0 55, Array.sub pts 55 14, "Cqtree.insert: dimension mismatch");
    ]

(* ------- blocked 1-d skip-web (§2.4.1) ------- *)

let test_blocked_build () =
  let net = Network.create ~hosts:256 in
  let b = B1.build ~net ~seed:50 ~m:16 (keys 256) in
  B1.check_invariants b;
  checki "size" 256 (B1.size b);
  checkb "has basic levels" true (List.length (B1.basic_levels b) >= 2);
  checkb "replication only a constant factor" true
    (B1.replicated_storage b < 4 * B1.total_storage b);
  (* An empty structure answers every query of a batch with nothing and
     draws no origin from the rng, with or without a pool. *)
  let empty = B1.build ~net:(Network.create ~hosts:8) ~seed:50 ~m:16 [||] in
  Skipweb_util.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun pool ->
          let rng = Prng.create 3 in
          let rs = B1.query_batch ?pool empty ~rng [| 1; 2; 3 |] in
          checki "one answer per query" 3 (Array.length rs);
          checkb "empty answers" true
            (Array.for_all
               (fun (r : B1.search_result) ->
                 r.B1.nearest = None && r.B1.predecessor = None && r.B1.successor = None
                 && r.B1.messages = 0)
               rs);
          checki "rng untouched" (Prng.int (Prng.create 3) 1_000_000) (Prng.int rng 1_000_000))
        [ None; pool ])

let test_blocked_query_correct () =
  let net = Network.create ~hosts:512 in
  let ks = keys 512 in
  let b = B1.build ~net ~seed:51 ~m:16 ks in
  let rng = Prng.create 52 in
  Array.iter
    (fun q ->
      let r = B1.query b ~rng q in
      check_opt "pred" (Lk.predecessor ks q) r.B1.predecessor;
      check_opt "succ" (Lk.successor ks q) r.B1.successor;
      check_opt "nearest" (Lk.nearest ks q) r.B1.nearest)
    (W.query_mix ~seed:53 ~keys:ks ~n:300 ~bound:51_200)

let test_blocked_fewer_messages_than_generic () =
  (* Ablation A1: contiguous blocking beats hashed placement. *)
  let n = 4096 in
  let net1 = Network.create ~hosts:n and net2 = Network.create ~hosts:n in
  let ks = keys n in
  let blocked = B1.build ~net:net1 ~seed:54 ~m:(4 * 13) ks in
  let generic = HInt.build ~net:net2 ~seed:54 ks in
  let rng1 = Prng.create 55 and rng2 = Prng.create 55 in
  let mb = ref 0 and mg = ref 0 in
  for i = 0 to 199 do
    let q = i * 1999 in
    mb := !mb + (B1.query blocked ~rng:rng1 q).B1.messages;
    let _, stats = HInt.query generic ~rng:rng2 q in
    mg := !mg + stats.HInt.messages
  done;
  checkb "blocking reduces messages" true (!mb < !mg)

let test_blocked_memory_within_budget () =
  let net = Network.create ~hosts:1024 in
  let m = 40 in
  let b = B1.build ~net ~seed:56 ~m (keys 1024) in
  (* Blocks + cones should stay within a small multiple of M. *)
  checkb "per-host memory near target" true (B1.max_host_memory b <= 8 * m)

let test_blocked_insert_delete () =
  let net = Network.create ~hosts:128 in
  let ks = keys 128 in
  let b = B1.build ~net ~seed:57 ~m:16 ks in
  let cost = B1.insert b 777_777 in
  checkb "insert cost positive" true (cost > 0);
  B1.check_invariants b;
  let rng = Prng.create 58 in
  check_opt "inserted found" (Some 777_777) (B1.query b ~rng 777_777).B1.nearest;
  let dcost = B1.delete b 777_777 in
  checkb "delete cost positive" true (dcost > 0);
  B1.check_invariants b;
  checki "size restored" 128 (B1.size b);
  checki "duplicate insert free" 0 (B1.insert b ks.(0))

let test_blocked_bucket_regime () =
  (* Row 7: H << n with big buckets; queries still correct, and messages
     drop well below the H = n regime. *)
  let n = 2048 in
  let ks = keys n in
  let net_small = Network.create ~hosts:16 in
  let b_small = B1.build ~net:net_small ~seed:59 ~m:(n / 8) ks in
  B1.check_invariants b_small;
  let rng = Prng.create 60 in
  let total = ref 0 in
  Array.iter
    (fun q ->
      let r = B1.query b_small ~rng q in
      check_opt "bucket regime correct" (Lk.nearest ks q) r.B1.nearest;
      total := !total + r.B1.messages)
    (W.query_mix ~seed:61 ~keys:ks ~n:200 ~bound:(100 * n));
  checkb "near-constant messages with M = n/8" true (float_of_int !total /. 200.0 < 6.0)


let test_blocked_range_query () =
  let net = Network.create ~hosts:256 in
  let ks = keys 256 in
  let b = B1.build ~net ~seed:62 ~m:16 ks in
  let rng = Prng.create 63 in
  List.iter
    (fun (lo, hi) ->
      let r = B1.range b ~rng ~lo ~hi in
      Alcotest.(check (list int)) "range keys" (Lk.range_keys ks ~lo ~hi) r.B1.keys;
      checkb "message cost covers locate" true (r.B1.messages >= 0))
    [ (0, 100); (1000, 5000); (0, max_int - 1); (777, 777) ];
  (* Cost grows with the answer size (block-boundary crossings). *)
  let small = (B1.range b ~rng ~lo:ks.(10) ~hi:ks.(12)).B1.messages in
  let large = (B1.range b ~rng ~lo:ks.(10) ~hi:ks.(250)).B1.messages in
  checkb "bigger answers cross more blocks" true (large > small)

let qcheck_blocked_matches_oracle =
  QCheck.Test.make ~name:"blocked skip-web = sorted-array oracle" ~count:40
    QCheck.(triple small_int (int_range 1 200) (int_range 0 30_000))
    (fun (seed, n, q) ->
      let ks = W.distinct_ints ~seed:(seed + 3) ~n ~bound:30_000 in
      let net = Network.create ~hosts:(max 4 (n / 2)) in
      let b = B1.build ~net ~seed ~m:8 ks in
      let r = B1.query b ~rng:(Prng.create seed) q in
      r.B1.predecessor = Lk.predecessor ks q && r.B1.successor = Lk.successor ks q)

let qcheck_hierarchy_int_matches_oracle =
  QCheck.Test.make ~name:"generic hierarchy = sorted-array oracle" ~count:40
    QCheck.(triple small_int (int_range 1 150) (int_range 0 30_000))
    (fun (seed, n, q) ->
      let ks = W.distinct_ints ~seed:(seed + 4) ~n ~bound:30_000 in
      let net = Network.create ~hosts:(n + 4) in
      let h = HInt.build ~net ~seed ks in
      let answer, _ = HInt.query h ~rng:(Prng.create seed) q in
      answer = Lk.nearest ks q)

(* Churn property: random interleaved insert/remove/query against a
   Set-based model, with the full invariant check (including the
   live-ranges-vs-network memory cross-check) every 64 ops. This is what
   guards the incremental update path — any drift in the id arena, the
   level sets, or the per-range memory charges fails here. *)
let qcheck_hierarchy_churn =
  let module IS = Set.Make (Int) in
  let model_nearest model k =
    let pred = IS.filter (fun x -> x <= k) model in
    let succ = IS.filter (fun x -> x >= k) model in
    match (IS.is_empty pred, IS.is_empty succ) with
    | true, true -> None
    | false, true -> Some (IS.max_elt pred)
    | true, false -> Some (IS.min_elt succ)
    | false, false ->
        let p = IS.max_elt pred and s = IS.min_elt succ in
        if k - p <= s - k then Some p else Some s
  in
  QCheck.Test.make ~name:"hierarchy churn: invariants + oracle answers" ~count:10
    QCheck.(pair small_int (int_range 0 64))
    (fun (seed, warm) ->
      let rng = Prng.create (seed + 101) in
      let net = Network.create ~hosts:32 in
      let initial = W.distinct_ints ~seed:(seed + 303) ~n:warm ~bound:4000 in
      let h = HInt.build ~net ~seed:(seed + 202) initial in
      let model = ref (IS.of_list (Array.to_list initial)) in
      let ok = ref true in
      for step = 1 to 256 do
        let k = Prng.int rng 4000 in
        (match Prng.int rng 3 with
        | 0 ->
            ignore (HInt.insert h k);
            model := IS.add k !model
        | 1 ->
            ignore (HInt.remove h k);
            model := IS.remove k !model
        | _ ->
            if not (IS.is_empty !model) then begin
              let answer, _ = HInt.query h ~rng k in
              if answer <> model_nearest !model k then ok := false
            end);
        if step mod 64 = 0 then HInt.check_invariants h
      done;
      HInt.check_invariants h;
      !ok && HInt.size h = IS.cardinal !model)

(* A bulk build and the same keys inserted one at a time from empty end in
   the same placement — every host's memory, the level count and the
   storage agree — across key counts that cross powers of two (so
   [grow_top] runs on the way up); removing every key in random order
   then walks [shrink_top] all the way down, keeping every invariant and
   releasing every charge. *)
let qcheck_hierarchy_build_equals_inserts =
  QCheck.Test.make ~name:"hierarchy build = inserts from empty, removes to zero" ~count:12
    QCheck.(pair small_int (int_range 1 600))
    (fun (seed, n) ->
      let ks = W.distinct_ints ~seed:(seed + 17) ~n ~bound:100_000 in
      let hosts = 64 in
      let net1 = Network.create ~hosts and net2 = Network.create ~hosts in
      let h1 = HInt.build ~net:net1 ~seed ks in
      let h2 = HInt.build ~net:net2 ~seed [||] in
      Array.iter (fun k -> ignore (HInt.insert h2 k)) ks;
      HInt.check_invariants h1;
      HInt.check_invariants h2;
      let memory net = Array.init hosts (Network.memory net) in
      let same =
        memory net1 = memory net2
        && HInt.levels h1 = HInt.levels h2
        && HInt.total_storage h1 = HInt.total_storage h2
      in
      let order = Array.copy ks in
      Prng.shuffle (Prng.create (seed + 29)) order;
      Array.iter
        (fun k ->
          ignore (HInt.remove h1 k);
          HInt.check_invariants h1)
        order;
      same && HInt.size h1 = 0 && Network.total_memory net1 = 0)

(* The memory cross-check is what stands behind the trusted range deltas:
   an instance whose [insert] under-reports one created range must be
   caught by [check_invariants] after a single update. *)
module HLying = H.Make (struct
  include I.Ints

  let insert t k =
    let d = I.Ints.insert t k in
    match d.Skipweb_core.Range_structure.added with
    | _ :: rest -> { d with added = rest }
    | [] -> d
end)

let test_lying_delta_caught () =
  let net = Network.create ~hosts:64 in
  let h = HLying.build ~net ~seed:5 (W.distinct_ints ~seed:6 ~n:100 ~bound:10_000) in
  HLying.check_invariants h;
  ignore (HLying.insert h 10_001);
  match HLying.check_invariants h with
  | () -> Alcotest.fail "an inexact range delta went unnoticed"
  | exception Failure _ -> ()

(* Redraw keys pack (set prefix, range id) into one int. An instance
   whose range ids do not fit the id field must make repair raise as
   soon as it keys a redraw, never alias another range's key. *)
module HWide = H.Make (struct
  include I.Ints

  let iter_range_ids t ~f = I.Ints.iter_range_ids t ~f:(fun id -> f (id + (1 lsl 31)))
end)

let test_redraw_key_guard () =
  let net = Network.create ~hosts:8 in
  let h = HWide.build ~net ~seed:5 ~r:2 (W.distinct_ints ~seed:6 ~n:100 ~bound:10_000) in
  Network.kill net 3;
  match HWide.repair h with
  | _ -> Alcotest.fail "a range id past the key's id field was keyed"
  | exception Invalid_argument _ -> ()

(* ------- batch updates ------- *)

(* A bulk insert must leave the hierarchy in exactly the state the same
   keys arriving one at a time produce: ids are assigned in presentation
   order either way, and ids drive membership, placement and charging.
   Each test runs twice: at 120 + 120 keys, and at sizes where the one
   batch takes the level-0 set across the 32-key flat/chunked cutoff of
   [I.Ints] (20 -> 50 keys, and 50 -> 20 for removal). *)
let insert_batch_matches_sequential ~base:nb ~extra:ne =
  let all = W.distinct_ints ~seed:21 ~n:(nb + ne) ~bound:20_000 in
  let base = Array.sub all 0 nb and extra = Array.sub all nb ne in
  let net1 = Network.create ~hosts:64 and net2 = Network.create ~hosts:64 in
  let h1 = HInt.build ~net:net1 ~seed:77 base in
  let h2 = HInt.build ~net:net2 ~seed:77 base in
  Array.iter (fun k -> ignore (HInt.insert h1 k)) extra;
  checki "batch count" ne (HInt.insert_batch h2 extra);
  checki "batch skips present keys" 0 (HInt.insert_batch h2 extra);
  HInt.check_invariants h1;
  HInt.check_invariants h2;
  checki "same size" (HInt.size h1) (HInt.size h2);
  checki "same levels" (HInt.levels h1) (HInt.levels h2);
  checki "same storage" (HInt.total_storage h1) (HInt.total_storage h2);
  for host = 0 to 63 do
    checki "same per-host memory" (Network.memory net1 host) (Network.memory net2 host)
  done;
  let rng1 = Prng.create 5151 and rng2 = Prng.create 5151 in
  for q = 0 to 49 do
    let probe = 400 * q in
    let a1, _ = HInt.query h1 ~rng:rng1 probe and a2, _ = HInt.query h2 ~rng:rng2 probe in
    check_opt "same answers" a1 a2
  done

let remove_batch_matches_sequential ~n ~first ~victims:nv =
  let all = W.distinct_ints ~seed:22 ~n ~bound:20_000 in
  let victims = Array.sub all first nv in
  let net1 = Network.create ~hosts:64 and net2 = Network.create ~hosts:64 in
  let h1 = HInt.build ~net:net1 ~seed:78 all in
  let h2 = HInt.build ~net:net2 ~seed:78 all in
  Array.iter (fun k -> ignore (HInt.remove h1 k)) victims;
  checki "batch count" nv (HInt.remove_batch h2 victims);
  checki "batch skips absent keys" 0 (HInt.remove_batch h2 victims);
  HInt.check_invariants h1;
  HInt.check_invariants h2;
  checki "same size" (HInt.size h1) (HInt.size h2);
  checki "same levels" (HInt.levels h1) (HInt.levels h2);
  checki "same storage" (HInt.total_storage h1) (HInt.total_storage h2);
  for host = 0 to 63 do
    checki "same per-host memory" (Network.memory net1 host) (Network.memory net2 host)
  done;
  let rng1 = Prng.create 5252 and rng2 = Prng.create 5252 in
  for q = 0 to 49 do
    let probe = 400 * q in
    let a1, _ = HInt.query h1 ~rng:rng1 probe and a2, _ = HInt.query h2 ~rng:rng2 probe in
    check_opt "same answers" a1 a2
  done

let test_insert_batch_matches_sequential () =
  insert_batch_matches_sequential ~base:120 ~extra:120;
  insert_batch_matches_sequential ~base:20 ~extra:30

let test_remove_batch_matches_sequential () =
  remove_batch_matches_sequential ~n:200 ~first:40 ~victims:130;
  remove_batch_matches_sequential ~n:50 ~first:10 ~victims:30

let test_remove_batch_to_empty () =
  let all = W.distinct_ints ~seed:23 ~n:70 ~bound:9_000 in
  let net = Network.create ~hosts:32 in
  let h = HInt.build ~net ~seed:79 all in
  checki "all removed" 70 (HInt.remove_batch h all);
  HInt.check_invariants h;
  checki "empty" 0 (HInt.size h);
  (* Refill through the batch path and make sure the hierarchy works. *)
  checki "refilled" 70 (HInt.insert_batch h all);
  HInt.check_invariants h;
  let rng = Prng.create 31 in
  let a, _ = HInt.query h ~rng all.(0) in
  check_opt "query after refill" (Some all.(0)) a

(* ------- pinned message-model invariance guards ------- *)

(* These totals were captured on the flat-array representation before the
   chunked container migration; the chunked code must reproduce them
   bit-for-bit, because the container is host-local machinery and must be
   invisible to the message model. If a change here is intentional, it
   changes the paper-facing cost accounting and every BENCH baseline. *)

let churn_pool keys =
  let data = Array.copy keys in
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i k -> Hashtbl.replace tbl k i) data;
  (ref data, ref (Array.length keys), tbl)

let pool_mem (_, _, tbl) k = Hashtbl.mem tbl k

let pool_add (data, len, tbl) k =
  if not (Hashtbl.mem tbl k) then begin
    if !len = Array.length !data then begin
      let b = Array.make (max 8 (2 * !len)) 0 in
      Array.blit !data 0 b 0 !len;
      data := b
    end;
    !data.(!len) <- k;
    Hashtbl.replace tbl k !len;
    len := !len + 1
  end

let pool_take (data, len, tbl) rng =
  if !len = 0 then None
  else begin
    let i = Prng.int rng !len in
    let k = !data.(i) in
    let last = !len - 1 in
    !data.(i) <- !data.(last);
    Hashtbl.replace tbl !data.(i) i;
    len := last;
    Hashtbl.remove tbl k;
    Some k
  end

let run_pinned_hierarchy_churn ?pool () =
  let bound = 30_000 in
  let ks = W.distinct_ints ~seed:42 ~n:300 ~bound in
  let net = Network.create ~hosts:128 in
  let h = HInt.build ~net ~seed:42 ?pool ks in
  let pool = churn_pool ks in
  let rng = Prng.create 0xc0ffee in
  let ops = ref 0 in
  for i = 0 to 399 do
    match i mod 5 with
    | 0 | 2 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if pool_mem pool k then fresh () else k
        in
        let k = fresh () in
        ops := !ops + HInt.insert h k;
        pool_add pool k
    | 1 | 3 -> (
        match pool_take pool rng with
        | Some k -> ops := !ops + HInt.remove h k
        | None -> ())
    | _ ->
        let _, st = HInt.query h ~rng (Prng.int rng bound) in
        ops := !ops + st.HInt.messages
  done;
  HInt.check_invariants h;
  checki "pinned op messages" 10287 !ops;
  checki "pinned network total" 3887 (Network.total_messages net);
  checki "pinned final size" 300 (HInt.size h)

let test_pinned_hierarchy_churn_messages () = run_pinned_hierarchy_churn ()

(* The same pinned totals with the bulk build fanned over a 2-domain
   pool: the parallel write path must be invisible to the message
   model. *)
let test_pinned_hierarchy_churn_messages_pooled () =
  Skipweb_util.Pool.with_pool ~jobs:2 (fun pool -> run_pinned_hierarchy_churn ?pool ())

let run_pinned_blocked_churn ?pool () =
  let bound = 10_000 in
  let ks = W.distinct_ints ~seed:9 ~n:200 ~bound in
  let net = Network.create ~hosts:64 in
  let b = B1.build ~net ~seed:9 ~m:16 ?pool ks in
  let pool = churn_pool ks in
  let rng = Prng.create 0xbeef in
  let ops = ref 0 in
  for i = 0 to 119 do
    match i mod 4 with
    | 0 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if pool_mem pool k then fresh () else k
        in
        let k = fresh () in
        ops := !ops + B1.insert b k;
        pool_add pool k
    | 1 -> (
        match pool_take pool rng with
        | Some k -> ops := !ops + B1.delete b k
        | None -> ())
    | _ ->
        let r = B1.query b ~rng (Prng.int rng bound) in
        ops := !ops + r.B1.messages
  done;
  B1.check_invariants b;
  checki "pinned op messages" 598 !ops;
  checki "pinned network total" 238 (Network.total_messages net);
  checki "pinned final size" 200 (B1.size b)

let test_pinned_blocked_churn_messages () = run_pinned_blocked_churn ()

(* Pooled build AND pooled epoch rebuilds (the structure keeps the pool it
   was built with), same pinned totals. *)
let test_pinned_blocked_churn_messages_pooled () =
  Skipweb_util.Pool.with_pool ~jobs:2 (fun pool -> run_pinned_blocked_churn ?pool ())

(* A Blocked1d guard at a size where the cone tables are long (thousands
   of entries per non-basic set) and every routing branch fires: ranges
   covered by several cone entries, the preferred-host choice among them,
   cache-slot reads, and failover off a dead primary (the busiest host of
   a warm-up pass is killed). Returns [msgs; net; failed; checksum], the
   last a checksum of per-host traffic. *)
let run_pinned_blocked_failover ~m =
  let n = 4096 in
  let net = Network.create ~hosts:n in
  let b = B1.build ~net ~seed:77 ~m ~r:2 (keys n) in
  B1.set_cache b ~levels:1 ~k:2;
  let rng = Prng.create 0xb10c in
  for _ = 1 to 500 do
    ignore (B1.query b ~rng (Prng.int rng (100 * n)))
  done;
  let busiest = ref 0 in
  for h = 1 to n - 1 do
    if Network.traffic net h > Network.traffic net !busiest then busiest := h
  done;
  Network.reset_traffic net;
  Network.kill net !busiest;
  let msgs = ref 0 and failed = ref 0 in
  for _ = 1 to 2000 do
    match B1.query b ~rng (Prng.int rng (100 * n)) with
    | r -> msgs := !msgs + r.B1.messages
    | exception Network.Host_dead _ -> incr failed
  done;
  let checksum = ref 0 in
  for h = 0 to n - 1 do
    checksum := ((!checksum * 1_000_003) + Network.traffic net h) land 0x3fff_ffff
  done;
  B1.check_invariants b;
  [ !msgs; Network.total_messages net; !failed; !checksum ]

(* With m = 48 the top level (12) is basic. With m = 32 it is a cone
   level, so a query starts on the head of a multi-entry covering run:
   that run pins the head-first order of the cone stab, which scanning
   the run in ascending block order changes. *)
let test_pinned_blocked_failover_queries () =
  Alcotest.(check (list int))
    "pinned blocked failover m=48 [msgs; net; failed; traffic checksum]"
    [ 4000; 4000; 0; 481096176 ]
    (run_pinned_blocked_failover ~m:48);
  Alcotest.(check (list int))
    "pinned blocked failover m=32 [msgs; net; failed; traffic checksum]"
    [ 4548; 4548; 0; 737029036 ]
    (run_pinned_blocked_failover ~m:32)

(* ------- multi-dimensional scans through the hierarchy (PR 10) ------- *)

let test_scan_answers_and_stats () =
  (* 1-d range count. *)
  let net = Network.create ~hosts:64 in
  let bound = 100_000 in
  let ks = W.distinct_ints ~seed:70 ~n:400 ~bound in
  let h = HInt.build ~net ~seed:70 ks in
  let rng = Prng.create 71 in
  List.iter
    (fun (lo, hi) ->
      let count, st = HInt.scan h ~rng (lo, hi) in
      let oracle = Array.fold_left (fun acc k -> if k >= lo && k <= hi then acc + 1 else acc) 0 ks in
      checki "int range count" oracle count;
      checki "per-level list length" (HInt.levels h) (List.length st.HInt.per_level_visits);
      checkb "scan charged" true (st.HInt.messages > 0))
    [ (0, bound); (250, 9_000); (50_000, 49_999) ];
  (* 2-d box + k-NN, against the direct quadtree walk. *)
  let netp = Network.create ~hosts:64 in
  let pts = W.uniform_points ~seed:72 ~n:400 ~dim:2 in
  let hp = HP2.build ~net:netp ~seed:72 pts in
  let oracle = Cq.build ~dim:2 pts in
  let rngp = Prng.create 73 in
  let lo = Point.create [ 0.2; 0.25 ] and hi = Point.create [ 0.75; 0.8 ] in
  (match HP2.scan hp ~rng:rngp (I.Box { lo; hi; limit = 40 }) with
  | I.Box_hits { count; sample }, st ->
      let c, s, _ = Cq.range_scan oracle ~lo ~hi ~limit:40 in
      checki "box count" c count;
      checkb "box sample = direct walk" true (sample = s);
      checki "box per-level length" (HP2.levels hp) (List.length st.HP2.per_level_visits)
  | I.Knn_hits _, _ -> Alcotest.fail "box scan answered knn");
  let center = Point.create [ 0.4; 0.6 ] in
  (match HP2.scan hp ~rng:rngp (I.Knn { center; k = 7 }) with
  | I.Knn_hits hits, st ->
      let oh, _ = Cq.knn oracle center ~k:7 in
      checkb "knn = direct walk" true (hits = oh);
      checkb "knn charged" true (st.HP2.messages > 0)
  | I.Box_hits _, _ -> Alcotest.fail "knn scan answered box");
  (* Prefix enumeration, against the direct trie walk. *)
  let nets = Network.create ~hosts:64 in
  let strs = W.random_strings ~seed:74 ~n:300 ~alphabet:3 ~len:7 in
  let hs = HStr.build ~net:nets ~seed:74 strs in
  let rngs = Prng.create 75 in
  let toracle = Ct.build strs in
  List.iter
    (fun prefix ->
      let a, st = HStr.scan hs ~rng:rngs { I.prefix; scan_limit = 30 } in
      checki ("prefix total " ^ prefix) (Ct.count_with_prefix toracle prefix) a.I.total;
      checkb ("prefix sample " ^ prefix) true
        (a.I.strings = List.filteri (fun i _ -> i < 30) (Ct.strings_with_prefix toracle prefix));
      checki "prefix per-level length" (HStr.levels hs) (List.length st.HStr.per_level_visits))
    [ "a"; "ab"; "ccc"; "" ];
  (* Trapezoid scan degenerates to the point query's answer. *)
  let netg = Network.create ~hosts:64 in
  let segs = W.disjoint_segments ~seed:76 ~n:50 in
  let hg = HSeg.build ~net:netg ~seed:76 segs in
  let rngg = Prng.create 77 in
  Array.iter
    (fun q ->
      let sa, _ = HSeg.scan hg ~rng:rngg q in
      let qa, _ = HSeg.query hg ~rng:rngg q in
      checkb "segment scan = query answer" true (sa = qa))
    (W.trapmap_query_points ~seed:78 ~n:25)

(* Scan batches fan out like query batches: answers and stats identical to
   the sequential loop for any jobs count. *)
let test_scan_batch_jobs_identity () =
  let digest jobs =
    Skipweb_util.Pool.with_pool ~jobs (fun pool ->
        let net = Network.create ~hosts:64 in
        let pts = W.uniform_points ~seed:79 ~n:300 ~dim:2 in
        let h = HP2.build ~net ~seed:79 ?pool pts in
        let qs = W.uniform_query_points ~seed:80 ~n:40 ~dim:2 in
        let scans =
          Array.map (fun c -> I.Knn { center = c; k = 3 }) qs
        in
        let rng = Prng.create 81 in
        let out = HP2.scan_batch ?pool h ~rng scans in
        (Array.to_list (Array.map (fun (a, st) -> (a, st.HP2.messages)) out),
         Network.total_messages net))
  in
  let reference = digest 1 in
  List.iter (fun jobs -> checkb "scan_batch jobs identity" true (digest jobs = reference)) [ 2; 4 ]

(* ------- multi-d batch updates: bit-identical for any jobs count ------- *)

let test_multid_batch_jobs_identity () =
  let p2 jobs =
    Skipweb_util.Pool.with_pool ~jobs (fun pool ->
        let net = Network.create ~hosts:64 in
        let base = W.uniform_points ~seed:60 ~n:400 ~dim:2 in
        let h = HP2.build ~net ~seed:61 ?pool base in
        let extra = W.uniform_points ~seed:62 ~n:120 ~dim:2 in
        let ins = HP2.insert_batch ?pool h extra in
        let rmv = HP2.remove_batch ?pool h (Array.sub extra 0 60) in
        HP2.check_invariants h;
        let rng = Prng.create 63 in
        let qs = W.uniform_query_points ~seed:64 ~n:50 ~dim:2 in
        let answers = HP2.query_batch ?pool h ~rng qs in
        ( ins,
          rmv,
          Array.to_list (Array.map (fun (a, st) -> (a, st.HP2.messages)) answers),
          Network.total_messages net,
          List.init 64 (Network.memory net),
          HP2.size h ))
  in
  let p2_ref = p2 1 in
  List.iter (fun jobs -> checkb "points2d batch jobs identity" true (p2 jobs = p2_ref)) [ 2; 4 ];
  let str jobs =
    Skipweb_util.Pool.with_pool ~jobs (fun pool ->
        let net = Network.create ~hosts:64 in
        let base = W.random_strings ~seed:65 ~n:400 ~alphabet:3 ~len:8 in
        let h = HStr.build ~net ~seed:66 ?pool base in
        let extra = W.random_strings ~seed:67 ~n:120 ~alphabet:3 ~len:9 in
        let ins = HStr.insert_batch ?pool h extra in
        let rmv = HStr.remove_batch ?pool h (Array.sub extra 0 60) in
        HStr.check_invariants h;
        let rng = Prng.create 68 in
        let qs = W.string_queries ~seed:69 ~keys:base ~n:50 in
        let answers = HStr.query_batch ?pool h ~rng qs in
        ( ins,
          rmv,
          Array.to_list (Array.map (fun (a, st) -> (a, st.HStr.messages)) answers),
          Network.total_messages net,
          List.init 64 (Network.memory net),
          HStr.size h ))
  in
  let str_ref = str 1 in
  List.iter (fun jobs -> checkb "strings batch jobs identity" true (str jobs = str_ref)) [ 2; 4 ];
  let seg jobs =
    Skipweb_util.Pool.with_pool ~jobs (fun pool ->
        let net = Network.create ~hosts:64 in
        let all = W.disjoint_segments ~seed:82 ~n:120 in
        let h = HSeg.build ~net ~seed:83 ?pool (Array.sub all 0 80) in
        (* Trapezoidal maps don't support deletion; inserts only. *)
        let ins = HSeg.insert_batch ?pool h (Array.sub all 80 40) in
        HSeg.check_invariants h;
        let rng = Prng.create 84 in
        let qs = W.trapmap_query_points ~seed:85 ~n:50 in
        let answers = HSeg.query_batch ?pool h ~rng qs in
        ( ins,
          Array.to_list (Array.map (fun (a, st) -> (a, st.HSeg.messages)) answers),
          Network.total_messages net,
          List.init 64 (Network.memory net),
          HSeg.size h ))
  in
  let seg_ref = seg 1 in
  List.iter (fun jobs -> checkb "segments batch jobs identity" true (seg jobs = seg_ref)) [ 2; 4 ]

(* ------- pinned multi-d churn guards (the 10287/3887 analogue) ------- *)

(* Like the 1-d guards above: these totals pin the multi-d structures'
   message model. A change here is a paper-facing cost-accounting change
   and invalidates the BENCH baselines. *)

let checkil = Alcotest.(check (list int))

let run_pinned_points_churn () =
  let base = W.uniform_points ~seed:90 ~n:300 ~dim:2 in
  let ins = W.uniform_points ~seed:91 ~n:200 ~dim:2 in
  let queries = W.uniform_query_points ~seed:92 ~n:200 ~dim:2 in
  let net = Network.create ~hosts:128 in
  let h = HP2.build ~net ~seed:90 base in
  let alive = ref (Array.to_list base) in
  let rng = Prng.create 0xfeed in
  let ops = ref 0 in
  let ins_i = ref 0 and q_i = ref 0 in
  for i = 0 to 399 do
    match i mod 5 with
    | 0 | 2 ->
        let p = ins.(!ins_i mod Array.length ins) in
        incr ins_i;
        ops := !ops + HP2.insert h p;
        alive := p :: !alive
    | 1 | 3 ->
        if !alive <> [] then begin
          let n = List.length !alive in
          let j = Prng.int rng n in
          let p = List.nth !alive j in
          alive := List.filteri (fun k _ -> k <> j) !alive;
          ops := !ops + HP2.remove h p
        end
    | _ ->
        let q = queries.(!q_i mod Array.length queries) in
        incr q_i;
        let _, st = HP2.query h ~rng q in
        ops := !ops + st.HP2.messages
  done;
  HP2.check_invariants h;
  checkil "pinned points2d churn [ops; net; size]" [ 11441; 5041; 300 ]
    [ !ops; Network.total_messages net; HP2.size h ]

let run_pinned_strings_churn () =
  let base = W.random_strings ~seed:93 ~n:300 ~alphabet:3 ~len:8 in
  let ins = W.random_strings ~seed:94 ~n:200 ~alphabet:3 ~len:9 in
  let queries = W.string_queries ~seed:95 ~keys:base ~n:200 in
  let net = Network.create ~hosts:128 in
  let h = HStr.build ~net ~seed:93 base in
  let alive = ref (Array.to_list base) in
  let rng = Prng.create 0xface in
  let ops = ref 0 in
  let ins_i = ref 0 and q_i = ref 0 in
  for i = 0 to 399 do
    match i mod 5 with
    | 0 | 2 ->
        let s = ins.(!ins_i mod Array.length ins) in
        incr ins_i;
        ops := !ops + HStr.insert h s;
        alive := s :: !alive
    | 1 | 3 ->
        if !alive <> [] then begin
          let n = List.length !alive in
          let j = Prng.int rng n in
          let s = List.nth !alive j in
          alive := List.filteri (fun k _ -> k <> j) !alive;
          ops := !ops + HStr.remove h s
        end
    | _ ->
        let q = queries.(!q_i mod Array.length queries) in
        incr q_i;
        let _, st = HStr.query h ~rng q in
        ops := !ops + st.HStr.messages
  done;
  HStr.check_invariants h;
  checkil "pinned strings churn [ops; net; size]" [ 11692; 5292; 300 ]
    [ !ops; Network.total_messages net; HStr.size h ]

let run_pinned_segments_churn () =
  let all = W.disjoint_segments ~seed:96 ~n:200 in
  let queries = W.trapmap_query_points ~seed:97 ~n:200 in
  let net = Network.create ~hosts:128 in
  let h = HSeg.build ~net ~seed:96 (Array.sub all 0 150) in
  let rng = Prng.create 0xdead in
  let ops = ref 0 in
  let ins_i = ref 150 and q_i = ref 0 in
  for i = 0 to 199 do
    if i mod 4 = 0 && !ins_i < 200 then begin
      ops := !ops + HSeg.insert h all.(!ins_i);
      incr ins_i
    end
    else begin
      let q = queries.(!q_i mod Array.length queries) in
      incr q_i;
      let _, st = HSeg.query h ~rng q in
      ops := !ops + st.HSeg.messages
    end
  done;
  HSeg.check_invariants h;
  checkil "pinned segments churn [ops; net; size]" [ 2479; 1579; 200 ]
    [ !ops; Network.total_messages net; HSeg.size h ]

(* ------- memory budgets ------- *)

(* A small 1-d level set is a record and one exact-length array, so a
   1-d hierarchy, where set-halving makes almost every level set tiny,
   holds a few words per key and level. *)
let test_ints_memory_budget () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let one = words (I.Ints.build [| 7 |]) in
  checkb (Printf.sprintf "1-key set <= 8 words (%d)" one) true (one <= 8);
  let sixteen = words (I.Ints.build (Array.init 16 (fun i -> 3 * i))) in
  checkb (Printf.sprintf "16-key set <= 24 words (%d)" sixteen) true (sixteen <= 24);
  let n = 20_000 in
  let net = Network.create ~hosts:n in
  let h = HInt.build ~net ~seed:1 ~r:1 (W.distinct_ints ~seed:1 ~n ~bound:(100 * n)) in
  let per_key = float_of_int (words h) /. float_of_int n in
  checkb (Printf.sprintf "hierarchy <= 80 words per key (%.1f)" per_key) true (per_key <= 80.0)

let test_points2d_memory_budget () =
  let n = 20_000 in
  let net = Network.create ~hosts:4096 in
  let h = HP2.build ~net ~seed:1 ~r:1 (W.uniform_points ~seed:1 ~n ~dim:2) in
  let per_key = float_of_int (Obj.reachable_words (Obj.repr h)) /. float_of_int n in
  checkb (Printf.sprintf "points2d hierarchy <= 170 words per key (%.1f)" per_key) true (per_key <= 170.0)

let test_points3d_memory_budget () =
  let n = 20_000 in
  let net = Network.create ~hosts:4096 in
  let h = HP3.build ~net ~seed:1 ~r:1 (W.uniform_points ~seed:1 ~n ~dim:3) in
  let per_key = float_of_int (Obj.reachable_words (Obj.repr h)) /. float_of_int n in
  checkb (Printf.sprintf "points3d hierarchy <= 185 words per key (%.1f)" per_key) true (per_key <= 185.0)

let suite =
  [
    Alcotest.test_case "hierarchy int build" `Quick test_hint_build;
    Alcotest.test_case "hierarchy level halving (Fig 2)" `Quick test_hint_level_halving;
    Alcotest.test_case "hierarchy int query correct" `Quick test_hint_query_correct;
    Alcotest.test_case "hierarchy int messages log" `Quick test_hint_messages_logarithmic;
    Alcotest.test_case "hierarchy memory balanced" `Quick test_hint_memory_balanced;
    Alcotest.test_case "hierarchy insert/remove" `Quick test_hint_insert_remove;
    Alcotest.test_case "hierarchy grows from empty" `Quick test_hint_grow_from_empty;
    Alcotest.test_case "hierarchy shrinks dead levels" `Quick test_hint_shrink_top;
    Alcotest.test_case "hierarchy p ablation (A3)" `Quick test_hint_halving_ablation;
    Alcotest.test_case "quadtree web point location" `Quick test_hp2_point_location;
    Alcotest.test_case "quadtree web deep input (Thm 2)" `Quick test_hp2_deep_input_stays_logarithmic;
    Alcotest.test_case "octree web (3d)" `Quick test_hp3_octree;
    Alcotest.test_case "quadtree web insert/remove" `Quick test_hp2_insert_remove;
    Alcotest.test_case "trie web answers" `Quick test_hstr_answers;
    Alcotest.test_case "trie web deep input (Thm 2)" `Quick test_hstr_deep_input;
    Alcotest.test_case "trie web insert/remove" `Quick test_hstr_insert_remove;
    Alcotest.test_case "trapmap web point location" `Quick test_hseg_point_location;
    Alcotest.test_case "trapmap web insert" `Quick test_hseg_insert;
    Alcotest.test_case "rejected segment insert leaves no trace" `Quick test_rejected_segment_insert;
    Alcotest.test_case "rejected point insert leaves no trace" `Quick test_rejected_point_insert;
    Alcotest.test_case "wrong-dimension probe sends no message" `Quick test_wrong_dimension_probe;
    Alcotest.test_case "rejected segment batch stores its documented part" `Quick
      test_rejected_segment_batch;
    Alcotest.test_case "rejected point batch stores its documented part" `Quick
      test_rejected_point_batch;
    Alcotest.test_case "blocked build" `Quick test_blocked_build;
    Alcotest.test_case "blocked query correct" `Quick test_blocked_query_correct;
    Alcotest.test_case "blocked beats generic (A1)" `Quick test_blocked_fewer_messages_than_generic;
    Alcotest.test_case "blocked memory within budget" `Quick test_blocked_memory_within_budget;
    Alcotest.test_case "blocked insert/delete" `Quick test_blocked_insert_delete;
    Alcotest.test_case "blocked bucket regime (row 7)" `Quick test_blocked_bucket_regime;
    Alcotest.test_case "blocked range query" `Quick test_blocked_range_query;
    Alcotest.test_case "insert_batch = sequential inserts" `Quick
      test_insert_batch_matches_sequential;
    Alcotest.test_case "remove_batch = sequential removes" `Quick
      test_remove_batch_matches_sequential;
    Alcotest.test_case "remove_batch to empty + refill" `Quick test_remove_batch_to_empty;
    Alcotest.test_case "pinned hierarchy churn messages" `Quick
      test_pinned_hierarchy_churn_messages;
    Alcotest.test_case "pinned blocked churn messages" `Quick test_pinned_blocked_churn_messages;
    Alcotest.test_case "pinned hierarchy churn messages (pooled build)" `Quick
      test_pinned_hierarchy_churn_messages_pooled;
    Alcotest.test_case "pinned blocked churn messages (pooled build)" `Quick
      test_pinned_blocked_churn_messages_pooled;
    Alcotest.test_case "pinned blocked failover queries" `Quick test_pinned_blocked_failover_queries;
    Alcotest.test_case "scan answers + stats (range/knn/prefix/trap)" `Quick
      test_scan_answers_and_stats;
    Alcotest.test_case "scan_batch jobs identity" `Quick test_scan_batch_jobs_identity;
    Alcotest.test_case "multi-d batch jobs identity" `Quick test_multid_batch_jobs_identity;
    Alcotest.test_case "pinned points2d churn messages" `Quick run_pinned_points_churn;
    Alcotest.test_case "pinned strings churn messages" `Quick run_pinned_strings_churn;
    Alcotest.test_case "pinned segments churn messages" `Quick run_pinned_segments_churn;
    QCheck_alcotest.to_alcotest qcheck_blocked_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_hierarchy_int_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_hierarchy_churn;
    QCheck_alcotest.to_alcotest qcheck_hierarchy_build_equals_inserts;
    Alcotest.test_case "lying range delta caught" `Quick test_lying_delta_caught;
    Alcotest.test_case "redraw key guard" `Quick test_redraw_key_guard;
    Alcotest.test_case "ints memory budget" `Quick test_ints_memory_budget;
    Alcotest.test_case "points2d memory budget" `Quick test_points2d_memory_budget;
    Alcotest.test_case "points3d memory budget" `Quick test_points3d_memory_budget;
  ]


(* ------- mixed-workload soak: interleaved queries and updates ------- *)

let test_soak_blocked_1d () =
  let rng = Prng.create 70 in
  let net = Network.create ~hosts:64 in
  let b = B1.build ~net ~seed:71 ~m:8 [||] in
  let module IS = Set.Make (Int) in
  let model = ref IS.empty in
  for step = 1 to 400 do
    let k = Prng.int rng 5000 in
    (match Prng.int rng 3 with
    | 0 ->
        if not (IS.mem k !model) then begin
          ignore (B1.insert b k);
          model := IS.add k !model
        end
    | 1 ->
        if IS.mem k !model then begin
          ignore (B1.delete b k);
          model := IS.remove k !model
        end
    | _ ->
        if not (IS.is_empty !model) then begin
          let r = B1.query b ~rng k in
          let expected =
            let below = IS.filter (fun x -> x <= k) !model in
            if IS.is_empty below then None else Some (IS.max_elt below)
          in
          check_opt "soak predecessor" expected r.B1.predecessor
        end);
    if step mod 50 = 0 then B1.check_invariants b
  done;
  checki "model size agrees" (IS.cardinal !model) (B1.size b)

let test_soak_hierarchy_int () =
  let rng = Prng.create 72 in
  let net = Network.create ~hosts:64 in
  let h = HInt.build ~net ~seed:73 [||] in
  let module IS = Set.Make (Int) in
  let model = ref IS.empty in
  for step = 1 to 300 do
    let k = Prng.int rng 5000 in
    (match Prng.int rng 3 with
    | 0 ->
        ignore (HInt.insert h k);
        model := IS.add k !model
    | 1 ->
        ignore (HInt.remove h k);
        model := IS.remove k !model
    | _ ->
        if not (IS.is_empty !model) then begin
          let answer, _ = HInt.query h ~rng k in
          let expected =
            let pred = IS.filter (fun x -> x <= k) !model in
            let succ = IS.filter (fun x -> x >= k) !model in
            match (IS.is_empty pred, IS.is_empty succ) with
            | true, true -> None
            | false, true -> Some (IS.max_elt pred)
            | true, false -> Some (IS.min_elt succ)
            | false, false ->
                let p = IS.max_elt pred and s = IS.min_elt succ in
                if k - p <= s - k then Some p else Some s
          in
          check_opt "soak nearest" expected answer
        end);
    if step mod 50 = 0 then HInt.check_invariants h
  done;
  checki "model size agrees" (IS.cardinal !model) (HInt.size h)

let soak_suite =
  [
    Alcotest.test_case "soak: blocked 1-d mixed workload" `Quick test_soak_blocked_1d;
    Alcotest.test_case "soak: generic hierarchy mixed workload" `Quick test_soak_hierarchy_int;
  ]
