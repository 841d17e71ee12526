(* Tests for the failure model end to end: replication factors, query
   failover, self-repair, and the post-repair equivalence property under
   random churn (PR 6's tentpole).

   The load-bearing guarantees pinned here:
     - r replica copies of a range live on r *distinct* hosts, so killing
       at most r - 1 hosts never destroys every copy (pinned by killing
       every (r-1)-subset of a 3-host network at r = 3);
     - with no failures, any r is bit-identical in messages to r = 1
       (queries keep visiting primaries);
     - repair migrates every stranded charge, keeps the structures'
       memory invariants, and is idempotent once placements are live;
     - after arbitrary interleaved kill / revive / insert / delete /
       repair churn with at most r - 1 concurrent failures, queries
       answer exactly like a fresh build over the surviving key set, at
       jobs 1, 2 and 4. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module B1 = Skipweb_core.Blocked1d
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool

module HInt = H.Make (I.Ints)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------- build-time validation ------- *)

let test_replication_validation () =
  let keys = [| 1; 5; 9 |] in
  let net = Network.create ~hosts:4 in
  Alcotest.check_raises "hierarchy r = 0" (Invalid_argument "Hierarchy.build: r >= 1") (fun () ->
      ignore (HInt.build ~net ~seed:1 ~r:0 keys));
  Alcotest.check_raises "hierarchy r > hosts"
    (Invalid_argument "Hierarchy.build: r exceeds host count") (fun () ->
      ignore (HInt.build ~net ~seed:1 ~r:5 keys));
  Alcotest.check_raises "blocked r = 0"
    (Invalid_argument "Blocked1d.build: need 1 <= r <= host count") (fun () ->
      ignore (B1.build ~net ~seed:1 ~m:4 ~r:0 keys));
  Alcotest.check_raises "blocked r > hosts"
    (Invalid_argument "Blocked1d.build: need 1 <= r <= host count") (fun () ->
      ignore (B1.build ~net ~seed:1 ~m:4 ~r:5 keys))

(* ------- zero-failure contracts ------- *)

(* With nobody dead, replication must be invisible to the message model:
   the same workload costs exactly the same at r = 1 and r = 3. *)
let run_query_workload_messages ~build ~query =
  let bound = 8_000 in
  let keys = W.distinct_ints ~seed:11 ~n:150 ~bound in
  let net = Network.create ~hosts:32 in
  let s = build net keys in
  let rng = Prng.create 0xfee1 in
  for _ = 1 to 120 do
    query s ~rng (Prng.int rng bound)
  done;
  Network.total_messages net

let test_hierarchy_replication_message_invisible () =
  let msgs r =
    run_query_workload_messages
      ~build:(fun net keys -> HInt.build ~net ~seed:11 ~r keys)
      ~query:(fun h ~rng q -> ignore (HInt.query h ~rng q))
  in
  let m1 = msgs 1 in
  checkb "some messages" true (m1 > 0);
  checki "r=2 bit-identical to r=1" m1 (msgs 2);
  checki "r=3 bit-identical to r=1" m1 (msgs 3)

let test_blocked_replication_message_invisible () =
  let msgs r =
    run_query_workload_messages
      ~build:(fun net keys -> B1.build ~net ~seed:11 ~m:16 ~r keys)
      ~query:(fun b ~rng q -> ignore (B1.query b ~rng q))
  in
  let m1 = msgs 1 in
  checkb "some messages" true (m1 > 0);
  checki "r=2 bit-identical to r=1" m1 (msgs 2);
  checki "r=3 bit-identical to r=1" m1 (msgs 3)

(* Replication scales stored memory by exactly r: every copy is charged. *)
let test_replication_memory_scales () =
  let keys = W.distinct_ints ~seed:5 ~n:100 ~bound:5_000 in
  let total ~r =
    let net = Network.create ~hosts:16 in
    ignore (HInt.build ~net ~seed:5 ~r keys);
    Network.total_memory net
  in
  let t1 = total ~r:1 in
  checkb "nonzero storage" true (t1 > 0);
  checki "hierarchy memory scales by r" (2 * t1) (total ~r:2);
  let btotal ~r =
    let net = Network.create ~hosts:16 in
    ignore (B1.build ~net ~seed:5 ~m:8 ~r keys);
    Network.total_memory net
  in
  let b1 = btotal ~r:1 in
  checkb "nonzero blocked storage" true (b1 > 0);
  checki "blocked memory scales by r" (2 * b1) (btotal ~r:2)

(* ------- distinct-replica guarantee ------- *)

(* On a 3-host network at r = 3, the three copies of every range must
   occupy all three hosts — so killing ANY two hosts leaves every range
   with a live copy and every query must still succeed. A placement that
   allowed two copies of one range to collide on a host would fail this
   for some pair. *)
let test_hierarchy_replicas_on_distinct_hosts () =
  let bound = 4_000 in
  let keys = W.distinct_ints ~seed:3 ~n:40 ~bound in
  let net = Network.create ~hosts:3 in
  let h = HInt.build ~net ~seed:3 ~r:3 keys in
  let probes = Array.append keys (Array.init 20 (fun i -> (i * 97) mod bound)) in
  List.iter
    (fun (a, b) ->
      Network.kill net a;
      Network.kill net b;
      Array.iter
        (fun q ->
          match HInt.query h ~rng:(Prng.create (q + 1)) q with
          | _ -> ()
          | exception Network.Host_dead _ ->
              Alcotest.failf "query %d lost all copies with hosts %d,%d down" q a b)
        probes;
      Network.revive net a;
      Network.revive net b)
    [ (0, 1); (0, 2); (1, 2) ]

let test_blocked_replicas_on_distinct_hosts () =
  let bound = 4_000 in
  let keys = W.distinct_ints ~seed:3 ~n:40 ~bound in
  let net = Network.create ~hosts:3 in
  let b = B1.build ~net ~seed:3 ~m:8 ~r:3 keys in
  let probes = Array.append keys (Array.init 20 (fun i -> (i * 97) mod bound)) in
  List.iter
    (fun (x, y) ->
      Network.kill net x;
      Network.kill net y;
      Array.iter
        (fun q ->
          match B1.query b ~rng:(Prng.create (q + 1)) q with
          | _ -> ()
          | exception Network.Host_dead _ ->
              Alcotest.failf "query %d lost all copies with hosts %d,%d down" q x y)
        probes;
      Network.revive net x;
      Network.revive net y)
    [ (0, 1); (0, 2); (1, 2) ]

(* ------- failover correctness and repair lifecycle ------- *)

let test_hierarchy_failover_and_repair () =
  let bound = 6_000 in
  let keys = W.distinct_ints ~seed:21 ~n:120 ~bound in
  let net = Network.create ~hosts:24 in
  let h = HInt.build ~net ~seed:21 ~r:2 keys in
  let probes = Array.init 60 (fun i -> (i * 131) mod bound) in
  let answers () = Array.map (fun q -> fst (HInt.query h ~rng:(Prng.create q) q)) probes in
  let baseline = answers () in
  (* One failure — the most r = 2 is guaranteed to mask. *)
  Network.kill net 5;
  (* Mid-failure: answers unchanged (failover finds the live copies), and
     the memory invariants still hold — charges on dead hosts are
     stranded, not wrong. *)
  checkb "failover answers match" true (answers () = baseline);
  HInt.check_invariants h;
  checkb "something stranded" true (Network.stranded_memory net > 0);
  let msgs_before = Network.total_messages net in
  let st = HInt.repair h in
  checki "repair bills its stats, not the workload counters" msgs_before
    (Network.total_messages net);
  checkb "repair scanned ranges" true (st.HInt.scanned > 0);
  checkb "repair moved copies" true (st.HInt.repaired > 0);
  checkb "repair billed messages" true (st.HInt.messages > 0);
  checki "nothing lost with one failure under r=2" 0 st.HInt.lost;
  checki "repair migrates every stranded charge" 0 (Network.stranded_memory net);
  HInt.check_invariants h;
  checkb "post-repair answers match" true (answers () = baseline);
  (* Idempotent once live. *)
  let st2 = HInt.repair h in
  checki "second repair moves nothing" 0 st2.HInt.repaired;
  checki "second repair bills nothing" 0 st2.HInt.messages;
  (* Rejoin: the hosts come back empty; everything still consistent. *)
  Network.revive net 5;
  HInt.check_invariants h;
  checkb "answers after rejoin" true (answers () = baseline)

(* A repair that cannot place a range's copies must refuse before it
   touches anything. 16 hosts at r = 3 with a 4-copy cache give cached
   ranges 6 copies; with 11 hosts dead only 5 are live, so no placement
   exists. The repair raises [Invalid_argument]; once the hosts are back
   the hierarchy is exactly what it was before the kills, and a repair
   moves nothing. With 6 live hosts the repair places every copy. *)
let test_repair_rejects_too_few_live_hosts () =
  let hosts = 16 in
  let net = Network.create ~hosts in
  let keys = W.distinct_ints ~seed:53 ~n:200 ~bound:10_000 in
  let h = HInt.build ~net ~seed:53 ~r:3 ~cache_levels:4 ~cache_replicas:4 keys in
  let before = Array.init hosts (Network.memory net) in
  let dead = List.init 11 Fun.id in
  List.iter (Network.kill net) dead;
  Alcotest.check_raises "6 copies per range on 5 live hosts"
    (Invalid_argument "Hierarchy.repair: fewer live hosts than copies per range") (fun () ->
      ignore (HInt.repair h : HInt.repair_stats));
  List.iter (Network.revive net) dead;
  HInt.check_invariants h;
  Alcotest.(check (array int)) "per-host memory as before the kills" before
    (Array.init hosts (Network.memory net));
  let st = HInt.repair h in
  checki "a later repair moves nothing" 0 st.HInt.repaired;
  checki "a later repair bills nothing" 0 st.HInt.messages;
  (* As many live hosts as copies is enough. *)
  List.iter (Network.kill net) (List.init 10 Fun.id);
  ignore (HInt.repair h : HInt.repair_stats);
  HInt.check_invariants h;
  checki "6 live hosts hold every copy" 0 (Network.stranded_memory net)

(* Enough live hosts is necessary, not sufficient: with 2 live hosts
   among 10 000 at r = 2, a second copy's draw finds its one admissible
   host within [Placement.draw]'s cap only some of the time, so the
   repair gives up partway with [Failure]. Every range is then either
   re-homed or untouched: the invariants hold at once, and after the
   revives a repair moves nothing. *)
let test_repair_exhausted_leaves_ranges_whole () =
  let hosts = 10_000 in
  let net = Network.create ~hosts in
  let keys = W.distinct_ints ~seed:59 ~n:30 ~bound:10_000 in
  let h = HInt.build ~net ~seed:59 ~r:2 keys in
  let on_live () = Network.memory net 0 + Network.memory net 1 in
  let before = on_live () in
  let dead = List.init (hosts - 2) (fun i -> i + 2) in
  List.iter (Network.kill net) dead;
  (match HInt.repair h with
  | (_ : HInt.repair_stats) -> Alcotest.fail "the repair found every copy a host"
  | exception Failure _ -> ());
  HInt.check_invariants h;
  checkb "some ranges moved before the repair gave up" true (on_live () > before);
  List.iter (Network.revive net) dead;
  HInt.check_invariants h;
  let st = HInt.repair h in
  checki "a later repair moves nothing" 0 st.HInt.repaired;
  checki "a later repair bills nothing" 0 st.HInt.messages

(* Pooled batch writes after a repair: the repair leaves re-drawn
   placements behind, and the level tasks of the following batches read
   and drop them on different domains at once. Each epoch kills a host,
   repairs, revives it, then inserts and removes a batch; per-host memory
   and the repair stats must equal the jobs-1 run. *)
let pooled_churn_after_repair ~jobs =
  let bound = 40_000 in
  let keys = W.distinct_ints ~seed:31 ~n:1_500 ~bound in
  let net = Network.create ~hosts:48 in
  Pool.with_pool ~jobs @@ fun pool ->
  let h = HInt.build ~net ~seed:31 ~r:2 ?pool keys in
  let stats =
    List.map
      (fun epoch ->
        let victim = (7 * epoch) + 3 in
        Network.kill net victim;
        let st = HInt.repair h in
        Network.revive net victim;
        let fresh = Array.init 300 (fun i -> bound + (epoch * 1_000) + (3 * i)) in
        ignore (HInt.insert_batch ?pool h fresh : int);
        ignore (HInt.remove_batch ?pool h (Array.sub fresh 0 200) : int);
        ignore (HInt.remove_batch ?pool h (Array.sub keys (epoch * 100) 100) : int);
        HInt.check_invariants h;
        (st.HInt.scanned, st.HInt.repaired, st.HInt.messages, st.HInt.lost))
      [ 0; 1; 2; 3 ]
  in
  (stats, Array.init (Network.host_count net) (Network.memory net))

let test_pooled_churn_after_repair () =
  let stats, memory = pooled_churn_after_repair ~jobs:1 in
  checkb "repairs moved copies" true (List.for_all (fun (_, moved, _, _) -> moved > 0) stats);
  let stats2, memory2 = pooled_churn_after_repair ~jobs:2 in
  checkb "repair stats at jobs 2 = jobs 1" true (stats2 = stats);
  checkb "per-host memory at jobs 2 = jobs 1" true (memory2 = memory)

(* Placement is a pure function of the structure, so where every copy
   lives — data replicas, cache copies and the redraws repair leaves
   behind — is a contract, not an implementation detail. Six epochs of
   kill -> repair -> revive on a cached, replicated hierarchy over few
   hosts (so collision skips and repeated redraws are common), with
   single and batch writes between epochs; pinned per epoch are the
   repair stats and a digest of every host's charged memory, at jobs 1
   and 2. *)
let placement_epochs ~jobs =
  let hosts = 16 and bound = 30_000 in
  let keys = W.distinct_ints ~seed:41 ~n:600 ~bound in
  let net = Network.create ~hosts in
  Pool.with_pool ~jobs @@ fun pool ->
  let h = HInt.build ~net ~seed:41 ~r:2 ~cache_levels:4 ~cache_replicas:4 ?pool keys in
  let digest () =
    let acc = ref 0 in
    for x = 0 to hosts - 1 do
      acc := Prng.hash2 !acc (Network.memory net x)
    done;
    !acc
  in
  List.map
    (fun epoch ->
      let victim = ((5 * epoch) + 2) mod hosts in
      Network.kill net victim;
      let st = HInt.repair h in
      Network.revive net victim;
      HInt.check_invariants h;
      let row =
        [ st.HInt.scanned; st.HInt.repaired; st.HInt.messages; st.HInt.lost; digest () ]
      in
      let k = bound + epoch in
      ignore (HInt.insert h k : int);
      ignore (HInt.remove h keys.(epoch) : int);
      let fresh = Array.init 120 (fun i -> bound + 100 + (epoch * 1_000) + (7 * i)) in
      ignore (HInt.insert_batch ?pool h fresh : int);
      ignore (HInt.remove_batch ?pool h (Array.append (Array.sub fresh 0 80) [| k |]) : int);
      HInt.check_invariants h;
      row)
    [ 0; 1; 2; 3; 4; 5 ]

let pinned_placement =
  [
    [ 14487; 2891; 2891; 0; 3643341383684298010 ];
    [ 15371; 3411; 3411; 0; 1906180754646970221 ];
    [ 16266; 3859; 3859; 0; 1711732979560705594 ];
    [ 17162; 4348; 4348; 0; 3364637212630993080 ];
    [ 18053; 4864; 4864; 0; 4206480874305114536 ];
    [ 18942; 5441; 5441; 0; 374725655657171767 ];
  ]

let test_pinned_placement () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "repair stats + memory digest per epoch (jobs %d)" jobs)
        pinned_placement (placement_epochs ~jobs))
    [ 1; 2 ]

(* Multi-failure repair, pinned over two instances: two hosts die in the
   same epoch, a pooled batch lands while they are down, then one repair
   pass runs; the hosts come back and single and batch writes follow
   before the next epoch kills two others. Redraw entries therefore pile
   up across epochs, and later kills strike copies that earlier repairs
   re-homed. At r = 3 with a cached window (c = 4, k = 4) nothing is
   lost; at r = 1 every copy on a dead host is [lost]. Pinned per epoch
   are the repair stats and a digest of every host's charged memory, at
   jobs 1 and 2. On 16 hosts a range's raw draws often collide or land
   on a dead host; on thousands of hosts almost none do, so the repair
   pass keeps nearly every range on its first draws. *)
module Multi_failure (S : Skipweb_core.Range_structure.S) = struct
  module Hr = H.Make (S)

  let epochs ~hosts ~jobs ~r ~cache ~(keys : S.key array) ~(extra : S.key array) =
    let net = Network.create ~hosts in
    let cache_levels, cache_replicas = if cache then (4, 4) else (0, 1) in
    Pool.with_pool ~jobs @@ fun pool ->
    let h = Hr.build ~net ~seed:43 ~r ~cache_levels ~cache_replicas ?pool keys in
    let digest () =
      let acc = ref 0 in
      for x = 0 to hosts - 1 do
        acc := Prng.hash2 !acc (Network.memory net x)
      done;
      !acc
    in
    let chunk = 40 in
    List.map
      (fun epoch ->
        let a = ((5 * epoch) + 2) mod hosts and b = ((5 * epoch) + 9) mod hosts in
        Network.kill net a;
        Network.kill net b;
        let fresh = Array.sub extra (epoch * 2 * chunk) chunk in
        ignore (Hr.insert_batch ?pool h fresh : int);
        let st = Hr.repair h in
        Hr.check_invariants h;
        let row = [ st.Hr.scanned; st.Hr.repaired; st.Hr.messages; st.Hr.lost; digest () ] in
        Network.revive net a;
        Network.revive net b;
        let single = extra.((epoch * 2 * chunk) + chunk) in
        ignore (Hr.insert h single : int);
        ignore (Hr.remove h keys.(epoch) : int);
        let more = Array.sub extra ((epoch * 2 * chunk) + chunk + 1) (chunk - 1) in
        ignore (Hr.insert_batch ?pool h more : int);
        ignore (Hr.remove_batch ?pool h (Array.append (Array.sub fresh 0 25) [| single |]) : int);
        ignore (Hr.remove_batch ?pool h (Array.sub keys (10 + (epoch * 15)) 15) : int);
        Hr.check_invariants h;
        row)
      [ 0; 1; 2; 3; 4 ]

  let check ?(hosts = 16) ~name ~keys ~extra pinned () =
    List.iter2
      (fun (r, cache) want ->
        List.iter
          (fun jobs ->
            Alcotest.(check (list (list int)))
              (Printf.sprintf "%s r=%d cache=%b: repair stats + memory digest (jobs %d)" name r
                 cache jobs)
              want
              (epochs ~hosts ~jobs ~r ~cache ~keys ~extra))
          [ 1; 2 ])
      [ (3, true); (1, false) ]
      pinned
end

module Multi_ints = Multi_failure (I.Ints)
module Multi_points = Multi_failure (I.Points2d)
module Multi_strings = Multi_failure (I.Strings)

let multi_ints_keys = W.distinct_ints ~seed:47 ~n:1_000 ~bound:50_000

let multi_points_keys = W.uniform_points ~seed:48 ~n:800 ~dim:2

let multi_strings_keys = W.random_strings ~seed:49 ~n:700 ~alphabet:4 ~len:8

let multi_wide_keys = W.distinct_ints ~seed:50 ~n:2_400 ~bound:200_000

let pinned_multi_ints =
  [
    [
      [ 15403; 8784; 8784; 0; 3716350811881587455 ];
      [ 16283; 10697; 10697; 0; 2310366709975219801 ];
      [ 17164; 13088; 13088; 0; 2981558339242928936 ];
      [ 18031; 15770; 15770; 0; 954229121172189181 ];
      [ 18910; 18450; 18450; 0; 1588014885678671250 ];
    ];
    [
      [ 15403; 1889; 0; 1889; 274614353256794905 ];
      [ 16283; 2299; 0; 2299; 646119319953328421 ];
      [ 17164; 2731; 0; 2731; 3174378385939963281 ];
      [ 18031; 3225; 0; 3225; 3516045810744981912 ];
      [ 18910; 3766; 0; 3766; 1086299887081497493 ];
    ];
  ]

let pinned_multi_points =
  [
    [
      [ 7160; 4339; 4339; 0; 109321761800180306 ];
      [ 7760; 5253; 5253; 0; 1067663908576717838 ];
      [ 9311; 6892; 6892; 0; 2542059608633468354 ];
      [ 10008; 8481; 8481; 0; 2822782157028978130 ];
      [ 10661; 9834; 9834; 0; 812578452738065245 ];
    ];
    [
      [ 7160; 885; 0; 885; 3762325765218177070 ];
      [ 7760; 1039; 0; 1039; 4397272857134369993 ];
      [ 9311; 1419; 0; 1419; 3888849957904237949 ];
      [ 10008; 1687; 0; 1687; 1995518004819091784 ];
      [ 10661; 1976; 0; 1976; 3651335104875967692 ];
    ];
  ]

let pinned_multi_strings =
  [
    [
      [ 5553; 3386; 3386; 0; 1813144465511518858 ];
      [ 6167; 4081; 4081; 0; 3666749781925828369 ];
      [ 6785; 5268; 5268; 0; 663411011436834438 ];
      [ 7383; 6406; 6406; 0; 1812654821431996278 ];
      [ 7962; 7530; 7530; 0; 682827760800175564 ];
    ];
    [
      [ 5553; 701; 0; 701; 4223406732271377129 ];
      [ 6167; 793; 0; 793; 2133711878884172517 ];
      [ 6785; 1050; 0; 1050; 4191439792196212134 ];
      [ 7383; 1279; 0; 1279; 4048659005953872797 ];
      [ 7962; 1464; 0; 1464; 2534068540064914403 ];
    ];
  ]

let pinned_multi_wide =
  [
    [
      [ 52159; 192; 192; 0; 2055844264264902846 ];
      [ 58894; 205; 205; 0; 1050652097800364870 ];
      [ 59919; 249; 249; 0; 4299965312351869801 ];
      [ 60940; 241; 241; 0; 3801963045446855804 ];
      [ 61980; 248; 248; 0; 1663711104736860930 ];
    ];
    [
      [ 52159; 49; 0; 49; 1074188816929901100 ];
      [ 58894; 57; 0; 57; 4441099717438523269 ];
      [ 59919; 59; 0; 59; 3378688286514712694 ];
      [ 60940; 59; 0; 59; 1231978177667763030 ];
      [ 61980; 71; 0; 71; 1896554355872710782 ];
    ];
  ]

(* Where Blocked1d keeps every copy — owners and group-cache copies —
   and which copy a read uses, pinned per epoch over r = 1, 2, 3 with the
   group cache on. Each epoch re-sizes the cache with [set_cache], kills
   the busiest host (and a second one at r = 3), runs queries, repairs,
   then inserts 41 keys one at a time while the hosts are still down.
   Pinned per epoch: the failed queries and the message sum of the
   others, a digest of every host's charged memory before the repair,
   the repair stats and the digest after, at jobs 1 and 2. *)
let blocked_copy_epochs ~jobs ~r =
  let hosts = 16 and bound = 40_000 in
  let keys = W.distinct_ints ~seed:53 ~n:600 ~bound in
  let net = Network.create ~hosts in
  Pool.with_pool ~jobs @@ fun pool ->
  let b = B1.build ~net ~seed:53 ~m:16 ~r ~cache_levels:1 ~cache_replicas:2 ?pool keys in
  let digest () =
    let acc = ref 0 in
    for x = 0 to hosts - 1 do
      acc := Prng.hash2 !acc (Network.memory net x)
    done;
    !acc
  in
  (* The live host with the most charged memory, lowest index on ties. *)
  let busiest () =
    let best = ref (-1) in
    for x = 0 to hosts - 1 do
      if Network.alive net x && (!best < 0 || Network.memory net x > Network.memory net !best) then
        best := x
    done;
    !best
  in
  List.mapi
    (fun epoch (levels, k) ->
      B1.set_cache b ~levels ~k;
      B1.check_invariants b;
      let victims =
        List.init (if r = 3 then 2 else 1) (fun _ ->
            let x = busiest () in
            Network.kill net x;
            x)
      in
      let failed = ref 0 and msgs = ref 0 in
      for i = 0 to 99 do
        let q = ((i * 397) + (epoch * 13)) mod bound in
        match B1.query b ~rng:(Prng.create ((epoch * 1_000) + i)) q with
        | res -> msgs := !msgs + res.B1.messages
        | exception Network.Host_dead _ -> incr failed
      done;
      let before = digest () in
      let st = B1.repair b in
      let after = digest () in
      ignore (B1.insert b (bound + epoch) : int);
      for i = 0 to 39 do
        ignore (B1.insert b (bound + 100 + (epoch * 1_000) + (7 * i)) : int)
      done;
      List.iter (Network.revive net) victims;
      B1.check_invariants b;
      [ !failed; !msgs; before; st.B1.scanned; st.B1.repaired; st.B1.messages; st.B1.lost; after ])
    [ (1, 2); (5, 3); (9, 4); (1, 3); (5, 2); (12, 4) ]

let pinned_blocked_copies =
  [
    [
      [ 13; 158; 807408099344498877; 1379; 2611; 1952; 659; 124810168022991244 ];
      [ 14; 161; 577434209413276243; 1420; 4168; 3870; 298; 1260145777093166329 ];
      [ 3; 181; 1425680385145731527; 1455; 5866; 5866; 0; 1065318387806431107 ];
      [ 23; 148; 2413326613941204862; 1489; 3302; 2490; 812; 1102069991589783106 ];
      [ 8; 165; 1933089048515416406; 1517; 4201; 3821; 380; 969222697818606658 ];
      [ 12; 171; 3921447118835975384; 1544; 8339; 8339; 0; 3319785860745095569 ];
    ];
    [
      [ 0; 180; 3823001796885304815; 1379; 3302; 3302; 0; 1969825177421642688 ];
      [ 0; 189; 2197469681604189440; 1420; 5185; 5185; 0; 3800221826090432712 ];
      [ 0; 186; 322370113748900984; 1455; 7838; 7838; 0; 1609819111642347812 ];
      [ 0; 182; 489247852076904577; 1489; 4915; 4915; 0; 795196146245902440 ];
      [ 0; 184; 959179643255647987; 1517; 4691; 4691; 0; 3883276756099889037 ];
      [ 0; 187; 2060013929356813054; 1544; 8072; 8072; 0; 3169472243359558908 ];
    ];
    [
      [ 0; 175; 3622818418834167179; 1379; 9654; 9654; 0; 1138569541130870674 ];
      [ 0; 190; 876738273898155224; 1420; 12279; 12279; 0; 2645184659614978313 ];
      [ 0; 192; 1937229760528233581; 1455; 16128; 16128; 0; 1863873318759981860 ];
      [ 0; 188; 1918498029326617658; 1489; 12401; 12401; 0; 3332687981763737280 ];
      [ 0; 185; 3804073158813105165; 1517; 13292; 13292; 0; 1252471639730771585 ];
      [ 0; 188; 2436802904956270955; 1544; 20855; 20855; 0; 200635827066327081 ];
    ];
  ]

let test_pinned_blocked_copies () =
  List.iter2
    (fun r want ->
      List.iter
        (fun jobs ->
          Alcotest.(check (list (list int)))
            (Printf.sprintf "r=%d: queries, memory digests and repair stats per epoch (jobs %d)" r
               jobs)
            want (blocked_copy_epochs ~jobs ~r))
        [ 1; 2 ])
    [ 1; 2; 3 ] pinned_blocked_copies

let test_blocked_failover_and_repair () =
  let bound = 6_000 in
  let keys = W.distinct_ints ~seed:22 ~n:120 ~bound in
  let net = Network.create ~hosts:24 in
  let b = B1.build ~net ~seed:22 ~m:16 ~r:2 keys in
  let probes = Array.init 60 (fun i -> (i * 131) mod bound) in
  let answers () =
    Array.map
      (fun q ->
        let r = B1.query b ~rng:(Prng.create q) q in
        (r.B1.predecessor, r.B1.successor, r.B1.nearest))
      probes
  in
  let baseline = answers () in
  Network.kill net 3;
  checkb "failover answers match" true (answers () = baseline);
  B1.check_invariants b;
  checkb "something stranded" true (Network.stranded_memory net > 0);
  let st = B1.repair b in
  checkb "repair accounted stranded units" true (st.B1.repaired > 0);
  checkb "repair billed steal messages" true (st.B1.messages > 0);
  checki "nothing lost with one failure under r=2" 0 st.B1.lost;
  checki "repair leaves nothing stranded" 0 (Network.stranded_memory net);
  B1.check_invariants b;
  checkb "post-repair answers match" true (answers () = baseline);
  let st2 = B1.repair b in
  checki "second repair moves nothing" 0 st2.B1.repaired;
  Network.revive net 3;
  B1.check_invariants b;
  checkb "answers after rejoin" true (answers () = baseline)

(* Graceful degradation at r = 1: a query whose only copy is on the dead
   host raises Host_dead (counted by callers, not a crash), everything
   else keeps answering, and a repair pass restores full availability. *)
let test_r1_degrades_and_recovers () =
  let bound = 6_000 in
  let keys = W.distinct_ints ~seed:31 ~n:150 ~bound in
  let net = Network.create ~hosts:12 in
  let h = HInt.build ~net ~seed:31 keys in
  Network.kill net 7;
  let probes = Array.init 80 (fun i -> (i * 211) mod bound) in
  let failed = ref 0 in
  Array.iter
    (fun q ->
      match HInt.query h ~rng:(Prng.create q) q with
      | _ -> ()
      | exception Network.Host_dead _ -> incr failed)
    probes;
  (* The structure survives the failures it cannot mask. *)
  HInt.check_invariants h;
  let st = HInt.repair h in
  checkb "repair re-homed the dead host's copies" true (st.HInt.repaired > 0);
  checkb "single-copy repairs count as lost, not stolen" true (st.HInt.lost > 0);
  Array.iter (fun q -> ignore (HInt.query h ~rng:(Prng.create q) q)) probes;
  checki "full availability after repair" 0 (Network.stranded_memory net);
  Network.revive net 7

(* ------- the churn equivalence property (satellite 4) ------- *)

(* Random interleavings of kill / revive / insert / delete with at most
   r - 1 concurrently dead hosts, a repair each epoch: afterwards the
   structure must answer every query exactly like a fresh build over the
   surviving key set — at jobs 1, 2 and 4, bit-identically. *)
let qcheck_hierarchy_churn_equiv =
  QCheck.Test.make ~name:"hierarchy churn: post-repair = fresh build (jobs 1/2/4)" ~count:10
    QCheck.(pair (int_bound 1_000_000) (int_range 2 3))
    (fun (seed, r) ->
      let hosts = 16 and n = 60 and bound = 5_000 in
      let keys = W.distinct_ints ~seed:(seed + 1) ~n ~bound in
      let net = Network.create ~hosts in
      let h = HInt.build ~net ~seed ~r keys in
      let current = Hashtbl.create n in
      Array.iter (fun k -> Hashtbl.replace current k ()) keys;
      let rng = Prng.create (seed + 7) in
      for _epoch = 1 to 3 do
        (* Kill at most r - 1 distinct live hosts. *)
        let kc = 1 + Prng.int rng (r - 1) in
        let killed = ref [] in
        while List.length !killed < kc do
          let x = Prng.int rng hosts in
          if Network.alive net x && Network.live_hosts net > 1 then begin
            Network.kill net x;
            killed := x :: !killed
          end
        done;
        (* Churn while degraded: inserts and deletes must themselves fail
           over (their locates route like queries). *)
        for _ = 1 to 6 do
          if Prng.bool rng && Hashtbl.length current > 10 then begin
            let ks = Hashtbl.fold (fun k () acc -> k :: acc) current [] in
            let victim = List.nth ks (Prng.int rng (List.length ks)) in
            ignore (HInt.remove h victim);
            Hashtbl.remove current victim
          end
          else begin
            let rec fresh () =
              let k = Prng.int rng bound in
              if Hashtbl.mem current k then fresh () else k
            in
            let k = fresh () in
            ignore (HInt.insert h k);
            Hashtbl.replace current k ()
          end
        done;
        let st = HInt.repair h in
        if st.HInt.lost <> 0 then QCheck.Test.fail_reportf "lost %d copies" st.HInt.lost;
        HInt.check_invariants h;
        List.iter (Network.revive net) !killed
      done;
      (* Reference: a fresh, unreplicated, never-failed build over the
         surviving key set, on its own network and a different seed —
         answers are a pure function of the key set. *)
      let survivors = Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) current []) in
      let fresh_net = Network.create ~hosts in
      let fresh = HInt.build ~net:fresh_net ~seed:(seed + 4242) survivors in
      let qs = Array.init 40 (fun i -> (i * 127 + seed) mod bound) in
      let expect = Array.map (fun q -> fst (HInt.query fresh ~rng:(Prng.create q) q)) qs in
      List.for_all
        (fun jobs ->
          let got =
            Pool.with_pool ~jobs (fun pool ->
                HInt.query_batch ?pool h ~rng:(Prng.create (seed + 99)) qs)
          in
          Array.map fst got = expect)
        [ 1; 2; 4 ])

let qcheck_blocked_churn_equiv =
  QCheck.Test.make ~name:"blocked churn: post-repair = fresh build (jobs 1/2/4)" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_range 2 3))
    (fun (seed, r) ->
      let hosts = 12 and n = 50 and bound = 4_000 in
      let keys = W.distinct_ints ~seed:(seed + 1) ~n ~bound in
      let net = Network.create ~hosts in
      let b = B1.build ~net ~seed ~m:8 ~r keys in
      let current = Hashtbl.create n in
      Array.iter (fun k -> Hashtbl.replace current k ()) keys;
      let rng = Prng.create (seed + 7) in
      for _epoch = 1 to 3 do
        let kc = 1 + Prng.int rng (r - 1) in
        let killed = ref [] in
        while List.length !killed < kc do
          let x = Prng.int rng hosts in
          if Network.alive net x && Network.live_hosts net > 1 then begin
            Network.kill net x;
            killed := x :: !killed
          end
        done;
        for _ = 1 to 4 do
          if Prng.bool rng && Hashtbl.length current > 10 then begin
            let ks = Hashtbl.fold (fun k () acc -> k :: acc) current [] in
            let victim = List.nth ks (Prng.int rng (List.length ks)) in
            ignore (B1.delete b victim);
            Hashtbl.remove current victim
          end
          else begin
            let rec fresh () =
              let k = Prng.int rng bound in
              if Hashtbl.mem current k then fresh () else k
            in
            let k = fresh () in
            ignore (B1.insert b k);
            Hashtbl.replace current k ()
          end
        done;
        let st = B1.repair b in
        if st.B1.lost <> 0 then QCheck.Test.fail_reportf "lost %d units" st.B1.lost;
        B1.check_invariants b;
        List.iter (Network.revive net) !killed
      done;
      let survivors = Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) current []) in
      let fresh_net = Network.create ~hosts in
      let fresh = B1.build ~net:fresh_net ~seed:(seed + 4242) ~m:8 survivors in
      let qs = Array.init 30 (fun i -> (i * 127 + seed) mod bound) in
      let key_answer (res : B1.search_result) =
        (res.B1.predecessor, res.B1.successor, res.B1.nearest)
      in
      let expect = Array.map (fun q -> key_answer (B1.query fresh ~rng:(Prng.create q) q)) qs in
      List.for_all
        (fun jobs ->
          let got =
            Pool.with_pool ~jobs (fun pool ->
                B1.query_batch ?pool b ~rng:(Prng.create (seed + 99)) qs)
          in
          Array.map key_answer got = expect)
        [ 1; 2; 4 ])

let suite =
  [
    Alcotest.test_case "replication validation" `Quick test_replication_validation;
    Alcotest.test_case "hierarchy replication message-invisible" `Quick
      test_hierarchy_replication_message_invisible;
    Alcotest.test_case "blocked replication message-invisible" `Quick
      test_blocked_replication_message_invisible;
    Alcotest.test_case "replication memory scales by r" `Quick test_replication_memory_scales;
    Alcotest.test_case "hierarchy replicas on distinct hosts" `Quick
      test_hierarchy_replicas_on_distinct_hosts;
    Alcotest.test_case "blocked replicas on distinct hosts" `Quick
      test_blocked_replicas_on_distinct_hosts;
    Alcotest.test_case "hierarchy failover + repair lifecycle" `Quick
      test_hierarchy_failover_and_repair;
    Alcotest.test_case "hierarchy repair rejects too few live hosts" `Quick
      test_repair_rejects_too_few_live_hosts;
    Alcotest.test_case "hierarchy repair that gives up leaves ranges whole" `Quick
      test_repair_exhausted_leaves_ranges_whole;
    Alcotest.test_case "hierarchy pooled churn after repair" `Quick
      test_pooled_churn_after_repair;
    Alcotest.test_case "hierarchy placement pinned across repairs" `Quick test_pinned_placement;
    Alcotest.test_case "hierarchy multi-failure repair pinned: sorted list" `Quick
      (Multi_ints.check ~name:"sorted list"
         ~keys:(Array.sub multi_ints_keys 0 600)
         ~extra:(Array.sub multi_ints_keys 600 400)
         pinned_multi_ints);
    Alcotest.test_case "hierarchy multi-failure repair pinned: quadtree" `Quick
      (Multi_points.check ~name:"quadtree"
         ~keys:(Array.sub multi_points_keys 0 400)
         ~extra:(Array.sub multi_points_keys 400 400)
         pinned_multi_points);
    Alcotest.test_case "hierarchy multi-failure repair pinned: trie" `Quick
      (Multi_strings.check ~name:"trie"
         ~keys:(Array.sub multi_strings_keys 0 300)
         ~extra:(Array.sub multi_strings_keys 300 400)
         pinned_multi_strings);
    Alcotest.test_case "hierarchy multi-failure repair pinned: sorted list, 2048 hosts" `Quick
      (Multi_ints.check ~hosts:2_048 ~name:"sorted list, 2048 hosts"
         ~keys:(Array.sub multi_wide_keys 0 2_000)
         ~extra:(Array.sub multi_wide_keys 2_000 400)
         pinned_multi_wide);
    Alcotest.test_case "blocked copies pinned across repairs" `Quick test_pinned_blocked_copies;
    Alcotest.test_case "blocked failover + repair lifecycle" `Quick
      test_blocked_failover_and_repair;
    Alcotest.test_case "r=1 degrades gracefully and recovers" `Quick test_r1_degrades_and_recovers;
    QCheck_alcotest.to_alcotest qcheck_hierarchy_churn_equiv;
    QCheck_alcotest.to_alcotest qcheck_blocked_churn_equiv;
  ]
