(* Serving at scale (PR 8): the read-path level cache on both skip-web
   structures, the open-loop workload driver, and the observatory under
   caching.

   The contract under test, in order of importance:
     - an *inactive* cache (k = 1) is byte-identical to the pre-cache
       code: the pinned churn message totals of test_core must reproduce
       exactly with cache parameters supplied;
     - caching never changes an answer, for any jobs count;
     - on a Zipf-skewed workload the congestion Gini is monotonically
       non-increasing in the replica count k;
     - cache copies die with their hosts: repair re-homes and bills them,
       and the memory accounting stays exact throughout (check_invariants
       cross-checks per-host charges against the simulator). *)

module Network = Skipweb_net.Network
module Obs = Skipweb_net.Observatory
module Placement = Skipweb_net.Placement
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module Lk = Skipweb_linklist.Linklist
module W = Skipweb_workload.Workload
module OL = Skipweb_workload.Open_loop
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module HInt = H.Make (I.Ints)

(* ------- the k = 1 byte-identity contract ------- *)

(* The exact pinned hierarchy churn of test_core, but with the cache
   window configured and k = 1: an inactive cache must not move a single
   message, charge or coin. *)
let test_pinned_hierarchy_cache_off () =
  let bound = 30_000 in
  let ks = W.distinct_ints ~seed:42 ~n:300 ~bound in
  let net = Network.create ~hosts:128 in
  let h = HInt.build ~net ~seed:42 ~cache_levels:4 ~cache_replicas:1 ks in
  let live = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace live k ()) ks;
  let arena = ref (Array.copy ks) in
  let len = ref (Array.length ks) in
  let add k =
    if !len = Array.length !arena then begin
      let b = Array.make (2 * !len) 0 in
      Array.blit !arena 0 b 0 !len;
      arena := b
    end;
    !arena.(!len) <- k;
    incr len;
    Hashtbl.replace live k ()
  in
  let take rng =
    if !len = 0 then None
    else begin
      let i = Prng.int rng !len in
      let k = !arena.(i) in
      !arena.(i) <- !arena.(!len - 1);
      decr len;
      Hashtbl.remove live k;
      Some k
    end
  in
  let rng = Prng.create 0xc0ffee in
  let ops = ref 0 in
  for i = 0 to 399 do
    match i mod 5 with
    | 0 | 2 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if Hashtbl.mem live k then fresh () else k
        in
        let k = fresh () in
        ops := !ops + HInt.insert h k;
        add k
    | 1 | 3 -> (
        match take rng with Some k -> ops := !ops + HInt.remove h k | None -> ())
    | _ ->
        let _, st = HInt.query h ~rng (Prng.int rng bound) in
        ops := !ops + st.HInt.messages
  done;
  HInt.check_invariants h;
  checki "pinned op messages" 10287 !ops;
  checki "pinned network total" 3887 (Network.total_messages net);
  checki "pinned final size" 300 (HInt.size h)

(* Same for the blocked structure: set_cache to k = 1 mid-run included. *)
let test_pinned_blocked_cache_off () =
  let bound = 10_000 in
  let ks = W.distinct_ints ~seed:9 ~n:200 ~bound in
  let net = Network.create ~hosts:64 in
  let b = B1.build ~net ~seed:9 ~m:16 ~cache_levels:4 ~cache_replicas:1 ks in
  let live = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace live k ()) ks;
  let arena = ref (Array.copy ks) in
  let len = ref (Array.length ks) in
  let add k =
    if !len = Array.length !arena then begin
      let bigger = Array.make (2 * !len) 0 in
      Array.blit !arena 0 bigger 0 !len;
      arena := bigger
    end;
    !arena.(!len) <- k;
    incr len;
    Hashtbl.replace live k ()
  in
  let take rng =
    if !len = 0 then None
    else begin
      let i = Prng.int rng !len in
      let k = !arena.(i) in
      !arena.(i) <- !arena.(!len - 1);
      decr len;
      Hashtbl.remove live k;
      Some k
    end
  in
  let rng = Prng.create 0xbeef in
  let ops = ref 0 in
  for i = 0 to 119 do
    (* An inactive-cache reconfiguration mid-churn must also be free. *)
    if i = 60 then B1.set_cache b ~levels:4 ~k:1;
    match i mod 4 with
    | 0 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if Hashtbl.mem live k then fresh () else k
        in
        let k = fresh () in
        ops := !ops + B1.insert b k;
        add k
    | 1 -> (
        match take rng with Some k -> ops := !ops + B1.delete b k | None -> ())
    | _ ->
        let r = B1.query b ~rng (Prng.int rng bound) in
        ops := !ops + r.B1.messages
  done;
  B1.check_invariants b;
  checki "pinned op messages" 598 !ops;
  checki "pinned network total" 238 (Network.total_messages net);
  checki "pinned final size" 200 (B1.size b)

(* ------- answers are cache-invariant, for any jobs count ------- *)

let qcheck_cached_answers_equal =
  QCheck.Test.make ~name:"cached query answers = uncached (jobs 1/2/4)" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let n = 400 in
      let bound = 100 * n in
      let ks = W.distinct_ints ~seed ~n ~bound in
      let qs = W.query_mix ~seed:(seed + 1) ~keys:ks ~n:200 ~bound in
      let run ~cache ~jobs =
        let net = Network.create ~hosts:256 in
        let h =
          if cache then HInt.build ~net ~seed ~cache_levels:5 ~cache_replicas:k ks
          else HInt.build ~net ~seed ks
        in
        HInt.check_invariants h;
        let go pool =
          Array.map fst (HInt.query_batch ?pool h ~rng:(Prng.create (seed + 2)) qs)
        in
        if jobs = 1 then go None else Pool.with_pool ~jobs (fun pool -> go pool)
      in
      let baseline = run ~cache:false ~jobs:1 in
      List.for_all
        (fun jobs ->
          let cached = run ~cache:true ~jobs in
          cached = baseline)
        [ 1; 2; 4 ])

let qcheck_blocked_cached_answers_equal =
  QCheck.Test.make ~name:"blocked cached answers = uncached (jobs 1/2/4)" ~count:6
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let n = 300 in
      let bound = 100 * n in
      let ks = W.distinct_ints ~seed ~n ~bound in
      let qs = W.query_mix ~seed:(seed + 1) ~keys:ks ~n:150 ~bound in
      let run ~cache ~jobs =
        let net = Network.create ~hosts:64 in
        let b =
          if cache then B1.build ~net ~seed ~m:16 ~cache_levels:8 ~cache_replicas:k ks
          else B1.build ~net ~seed ~m:16 ks
        in
        B1.check_invariants b;
        let go pool =
          Array.map
            (fun r -> (r.B1.predecessor, r.B1.successor, r.B1.nearest))
            (B1.query_batch ?pool b ~rng:(Prng.create (seed + 2)) qs)
        in
        if jobs = 1 then go None else Pool.with_pool ~jobs (fun pool -> go pool)
      in
      let baseline = run ~cache:false ~jobs:1 in
      List.for_all (fun jobs -> run ~cache:true ~jobs = baseline) [ 1; 2; 4 ])

(* ------- the observatory under caching: Gini non-increasing in k ------- *)

let gini_for ~structure ~k =
  let seed = 11 in
  let n = 4096 in
  let bound = 100 * n in
  let ks = W.distinct_ints ~seed ~n ~bound in
  let qs = W.zipf_queries ~seed:(seed + 3) ~keys:ks ~n:4000 ~s:1.1 in
  let net = Network.create ~hosts:n in
  let query_one =
    match structure with
    | `Hierarchy ->
        let h = HInt.build ~net ~seed ~cache_levels:4 ~cache_replicas:k ks in
        fun rng q -> ignore (HInt.query h ~rng q)
    | `Blocked ->
        let b = B1.build ~net ~seed ~m:48 ~cache_levels:4 ~cache_replicas:k ks in
        fun rng q -> ignore (B1.query b ~rng q)
  in
  Network.reset_traffic net;
  let coins = Prng.create (seed + 7) in
  Array.iteri (fun i q -> query_one (Prng.stream coins i) q) qs;
  let c = Obs.congestion_of net in
  (c.Obs.gini, Obs.top_share net ~m:16)

let test_gini_non_increasing_hierarchy () =
  let stats = List.map (fun k -> gini_for ~structure:`Hierarchy ~k) [ 1; 2; 4 ] in
  let ginis = List.map fst stats and shares = List.map snd stats in
  List.iteri
    (fun i g ->
      if i > 0 then
        checkb
          (Printf.sprintf "hierarchy gini non-increasing (%g then %g)" (List.nth ginis (i - 1)) g)
          true
          (g <= List.nth ginis (i - 1) +. 1e-9))
    ginis;
  checkb "hierarchy gini strictly lower at k=4" true (List.nth ginis 2 < List.hd ginis);
  checkb "hierarchy top-16 share falls" true (List.nth shares 2 < List.hd shares)

let test_gini_non_increasing_blocked () =
  let ginis = List.map (fun k -> fst (gini_for ~structure:`Blocked ~k)) [ 1; 2; 4 ] in
  List.iteri
    (fun i g ->
      if i > 0 then
        checkb
          (Printf.sprintf "blocked gini non-increasing (%g then %g)" (List.nth ginis (i - 1)) g)
          true
          (g <= List.nth ginis (i - 1) +. 1e-9))
    ginis;
  checkb "blocked gini strictly lower at k=4" true (List.nth ginis 2 < List.hd ginis)

(* ------- cache copies under failure: repair re-homes and bills them ------- *)

let test_hierarchy_cache_repair () =
  let seed = 21 in
  let n = 200 in
  let ks = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:64 in
  let h = HInt.build ~net ~seed ~r:2 ~cache_levels:3 ~cache_replicas:3 ks in
  HInt.check_invariants h;
  (* Kill one host: within the r - 1 loss-free budget, and with hundreds of
     cached copies over 64 hosts it certainly held some cache slots. *)
  Network.kill net 17;
  let st = HInt.repair h in
  checkb "repair billed steal messages" true (st.HInt.messages > 0);
  checki "no copy lost" 0 st.HInt.lost;
  checki "stranded memory cleared" 0 (Network.stranded_memory net);
  HInt.check_invariants h;
  let st2 = HInt.repair h in
  checki "repair idempotent" 0 st2.HInt.repaired;
  (* Queries answer correctly afterwards. *)
  let rng = Prng.create (seed + 5) in
  Array.iter
    (fun q ->
      let a, _ = HInt.query h ~rng q in
      let expect = Lk.nearest ks q in
      checkb "post-repair answer" true (a = expect))
    (Array.sub ks 0 25)

let test_blocked_cache_repair () =
  let seed = 23 in
  let n = 220 in
  let ks = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:48 in
  let b = B1.build ~net ~seed ~m:16 ~r:2 ~cache_levels:8 ~cache_replicas:3 ks in
  B1.check_invariants b;
  List.iter (fun host -> Network.kill net host) [ 2; 9; 30 ];
  let st = B1.repair b in
  checkb "repair billed steal messages" true (st.B1.messages > 0);
  checki "no unit lost" 0 st.B1.lost;
  B1.check_invariants b;
  let st2 = B1.repair b in
  checki "repair idempotent" 0 st2.B1.repaired

(* ------- blocked set_cache: exact charge round-trip ------- *)

let test_blocked_set_cache_roundtrip () =
  let seed = 31 in
  let n = 300 in
  let ks = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:64 in
  let b = B1.build ~net ~seed ~m:16 ks in
  let snapshot () = Array.init (Network.host_count net) (fun h -> Network.memory net h) in
  let before = snapshot () in
  let storage_before = B1.replicated_storage b in
  B1.set_cache b ~levels:8 ~k:3;
  B1.check_invariants b;
  checkb "cache adds replicated storage" true (B1.replicated_storage b > storage_before);
  (* A build with the same cache parameters lands every copy identically:
     per-host memory must agree exactly (placement is pure). *)
  let net2 = Network.create ~hosts:64 in
  let _b2 = B1.build ~net:net2 ~seed ~m:16 ~cache_levels:8 ~cache_replicas:3 ks in
  Array.iteri
    (fun h m -> checki (Printf.sprintf "host %d memory = fresh cached build" h) m (Network.memory net2 h))
    (snapshot ());
  (* Turning the cache back off releases exactly what it charged. *)
  B1.set_cache b ~levels:8 ~k:1;
  B1.check_invariants b;
  Array.iteri
    (fun h m -> checki (Printf.sprintf "host %d memory restored" h) before.(h) m)
    (snapshot ());
  checki "storage restored" storage_before (B1.replicated_storage b)

(* ------- hierarchy cache memory accounting through growth ------- *)

let test_hierarchy_cache_charges_track_growth () =
  let seed = 37 in
  let ks = W.distinct_ints ~seed ~n:120 ~bound:20_000 in
  let net = Network.create ~hosts:32 in
  let h = HInt.build ~net ~seed ~cache_levels:4 ~cache_replicas:3 ks in
  HInt.check_invariants h;
  (* Push n across a power of two and back: grow_top / shrink_top must
     keep cache charges exact (the window is bottom-anchored, so it never
     shifts — check_invariants cross-checks every host's charge). *)
  let extra = W.distinct_ints ~seed:(seed + 1) ~n:200 ~bound:90_000 in
  let added = Array.of_list (List.filter (fun k -> not (Array.mem k ks)) (Array.to_list extra)) in
  ignore (HInt.insert_batch h added);
  HInt.check_invariants h;
  ignore (HInt.remove_batch h added);
  HInt.check_invariants h;
  checki "size restored" 120 (HInt.size h)

(* ------- the open-loop driver ------- *)

let test_open_loop_deterministic_replay () =
  let ks = W.distinct_ints ~seed:3 ~n:500 ~bound:4_000 in
  let spec = { OL.default with OL.seed = 77; ops = 2_000; bound = 4_000 } in
  let a = OL.plan spec ~keys:ks in
  let b = OL.plan spec ~keys:ks in
  checkb "replay is exact" true (a = b);
  checki "planned every op" 2_000 (Array.length a);
  (* Arrival times strictly increase; rate 1000 means ~2 time units. *)
  Array.iteri
    (fun i e ->
      if i > 0 then checkb "arrivals increase" true (e.OL.at > a.(i - 1).OL.at))
    a;
  checkb "duration near ops/rate" true
    (OL.duration a > 1.0 && OL.duration a < 4.0)

let test_open_loop_mix_and_validity () =
  let bound = 4_000 in
  let ks = W.distinct_ints ~seed:5 ~n:500 ~bound in
  let spec =
    { OL.default with OL.seed = 91; ops = 4_000; read_fraction = 0.8; zipf_share = 0.5; bound }
  in
  let events = OL.plan spec ~keys:ks in
  let c = OL.counts events in
  checki "counts partition the plan" 4_000 (c.OL.queries + c.OL.inserts + c.OL.removes);
  checkb "read fraction honored (~0.8)" true
    (abs (c.OL.queries - 3_200) < 200);
  checkb "writes split between insert and remove" true (c.OL.inserts > 100 && c.OL.removes > 100);
  (* Replay against a model set: removes always hit live keys, inserts are
     always fresh and out of the initial key space. *)
  let live = Hashtbl.create 600 in
  Array.iter (fun k -> Hashtbl.replace live k ()) ks;
  Array.iter
    (fun e ->
      match e.OL.op with
      | OL.Query q -> checkb "query in domain" true (q >= 0 && q < bound)
      | OL.Insert k ->
          checkb "insert fresh" true (not (Hashtbl.mem live k));
          checkb "insert from [bound, 2*bound)" true (k >= bound && k < 2 * bound);
          Hashtbl.replace live k ()
      | OL.Remove k ->
          checkb "remove hits a live key" true (Hashtbl.mem live k);
          Hashtbl.remove live k)
    events;
  (* Zipf skew shows: some stored key is queried far above uniform. *)
  let freq = Hashtbl.create 600 in
  Array.iter
    (fun e ->
      match e.OL.op with
      | OL.Query q when Hashtbl.mem live q || Array.mem q ks ->
          Hashtbl.replace freq q (1 + try Hashtbl.find freq q with Not_found -> 0)
      | _ -> ())
    events;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) freq 0 in
  checkb "zipf head concentrates queries" true (hottest > 40)

let test_replica_slot_pure_and_spread () =
  let slot = Placement.replica_slot ~seed:7 in
  checki "k=1 always slot 0" 0 (slot ~origin:123 ~level:5 ~k:1);
  checki "pure" (slot ~origin:9 ~level:2 ~k:4) (slot ~origin:9 ~level:2 ~k:4);
  (* All k slots are hit across origins. *)
  let seen = Array.make 4 false in
  for origin = 0 to 63 do
    seen.(slot ~origin ~level:1 ~k:4) <- true
  done;
  checkb "all slots used" true (Array.for_all Fun.id seen)

let suite =
  [
    Alcotest.test_case "pinned hierarchy churn, cache off" `Quick test_pinned_hierarchy_cache_off;
    Alcotest.test_case "pinned blocked churn, cache off" `Quick test_pinned_blocked_cache_off;
    QCheck_alcotest.to_alcotest qcheck_cached_answers_equal;
    QCheck_alcotest.to_alcotest qcheck_blocked_cached_answers_equal;
    Alcotest.test_case "gini non-increasing in k (hierarchy)" `Quick
      test_gini_non_increasing_hierarchy;
    Alcotest.test_case "gini non-increasing in k (blocked)" `Quick test_gini_non_increasing_blocked;
    Alcotest.test_case "hierarchy cache repair lifecycle" `Quick test_hierarchy_cache_repair;
    Alcotest.test_case "blocked cache repair lifecycle" `Quick test_blocked_cache_repair;
    Alcotest.test_case "blocked set_cache round-trip" `Quick test_blocked_set_cache_roundtrip;
    Alcotest.test_case "hierarchy cache charges track growth" `Quick
      test_hierarchy_cache_charges_track_growth;
    Alcotest.test_case "open-loop deterministic replay" `Quick test_open_loop_deterministic_replay;
    Alcotest.test_case "open-loop mix and validity" `Quick test_open_loop_mix_and_validity;
    Alcotest.test_case "replica_slot pure and spreading" `Quick test_replica_slot_pure_and_spread;
  ]
