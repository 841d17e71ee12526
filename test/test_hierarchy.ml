(* Routing pins for the generic hierarchy (§2.3–2.5, §4): which host
   every range of every level lands on, and which ranges a descent
   visits, is the message model. Per-query answers, messages and
   per-level visits, per-host traffic and per-host memory are therefore a
   contract, pinned here over three instances, replication, the level
   cache and a dead host. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let mix acc x = Prng.hash2 acc x
let mix_float acc f = mix acc (Int64.to_int (Int64.bits_of_float f))
let mix_string acc s =
  String.fold_left (fun acc c -> mix acc (Char.code c)) (mix acc (String.length s)) s
let mix_point acc p = Array.fold_left mix_float (mix acc (Array.length p)) p

(* One instance under test: a ground set, fresh keys for inserts (the
   last [batch] of them inserted as one batch), point queries, scans, and
   how to fold an answer into a digest. An instance that cannot delete
   ([removable = false]) runs an insert-only update stage. *)
module type CASE = sig
  module S : Skipweb_core.Range_structure.S

  val n : int
  val batch : int
  val removable : bool
  val keys : S.key array
  val extra : S.key array
  val queries : S.query array
  val scans : S.scan array
  val answer : int -> S.answer -> int
  val scan_answer : int -> S.scan_answer -> int
end

module Stages (C : CASE) = struct
  module Hr = H.Make (C.S)

  (* A fresh hierarchy and network per stage, so stages cannot leak
     traffic into each other. With [kill], the queries run once as a
     warm-up and the host they visited most dies before the stage runs;
     with r = 1 some walks then raise [Host_dead]. *)
  let fresh ~r ~cache ~kill =
    let net = Network.create ~hosts:C.n in
    let cache_levels, cache_replicas = if cache then (2, 3) else (0, 1) in
    let h = Hr.build ~net ~seed:41 ~r ~cache_levels ~cache_replicas C.keys in
    if kill then begin
      let rng = Prng.create 0x17 in
      Array.iter (fun q -> try ignore (Hr.query h ~rng q) with Network.Host_dead _ -> ()) C.queries;
      let busiest = ref 0 in
      for host = 1 to C.n - 1 do
        if Network.traffic net host > Network.traffic net !busiest then busiest := host
      done;
      Network.reset_traffic net;
      Network.kill net !busiest
    end;
    (net, h)

  let stats acc (s : Hr.query_stats) =
    List.fold_left mix (mix (mix acc s.Hr.messages) s.Hr.ranges_visited) s.Hr.per_level_visits

  (* The stage's own digest, then every host's traffic and memory. *)
  let with_hosts net acc =
    let acc = ref acc in
    for host = 0 to C.n - 1 do
      acc := mix (mix !acc (Network.traffic net host)) (Network.memory net host)
    done;
    mix !acc (Network.total_messages net)

  let stage_query ~r ~cache ~kill =
    let net, h = fresh ~r ~cache ~kill in
    let rng = Prng.create 0x21 in
    let step acc q =
      match Hr.query h ~rng q with
      | a, s -> stats (C.answer acc a) s
      | exception Network.Host_dead _ -> mix acc (-1)
    in
    with_hosts net (Array.fold_left step 0 C.queries)

  let stage_scan ~r ~cache ~kill =
    let net, h = fresh ~r ~cache ~kill in
    let rng = Prng.create 0x31 in
    let step acc sc =
      match Hr.scan h ~rng sc with
      | a, s -> stats (C.scan_answer acc a) s
      | exception Network.Host_dead _ -> mix acc (-1)
    in
    with_hosts net (Array.fold_left step 0 C.scans)

  (* Single inserts cross the next power of two (the hierarchy grows a
     level), single removes cross back (it shrinks one), then a batch of
     each runs through the per-level sweeps; with a dead host a repair
     pass ends the stage. An insert-only instance skips both removals. *)
  let stage_update ~r ~cache ~kill =
    let net, h = fresh ~r ~cache ~kill in
    let cost acc f =
      match f () with c -> mix acc c | exception Network.Host_dead _ -> mix acc (-1)
    in
    let singles = Array.length C.extra - C.batch in
    let acc = ref 0 in
    for i = 0 to singles - 1 do
      acc := cost !acc (fun () -> Hr.insert h C.extra.(i))
    done;
    acc := mix !acc (Hr.levels h);
    if C.removable then begin
      for i = 0 to singles + 9 do
        let k = if i mod 2 = 0 then C.extra.(i / 2) else C.keys.(i) in
        acc := cost !acc (fun () -> Hr.remove h k)
      done;
      acc := mix !acc (Hr.levels h)
    end;
    acc := mix !acc (Hr.insert_batch h (Array.sub C.extra singles C.batch));
    if C.removable then acc := mix !acc (Hr.remove_batch h (Array.sub C.keys 100 C.batch));
    acc := mix (mix !acc (Hr.size h)) (Hr.total_storage h);
    for level = 0 to Hr.levels h - 1 do
      acc := List.fold_left mix !acc (List.sort compare (Hr.level_set_sizes h level))
    done;
    if kill then begin
      let s = Hr.repair h in
      acc := List.fold_left mix !acc [ s.Hr.scanned; s.Hr.repaired; s.Hr.messages; s.Hr.lost ]
    end;
    Hr.check_invariants h;
    with_hosts net !acc

  let configs =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun cache -> List.map (fun kill -> (r, cache, kill)) [ false; true ])
          [ false; true ])
      [ 1; 2 ]

  let rows () =
    List.map
      (fun (r, cache, kill) ->
        [ stage_query ~r ~cache ~kill; stage_scan ~r ~cache ~kill; stage_update ~r ~cache ~kill ])
      configs

  let check pinned () =
    List.iter2
      (fun (r, cache, kill) (want, got) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s r=%d cache=%b kill=%b [query; scan; update]" C.S.name r cache kill)
          want got)
      configs
      (List.combine pinned (rows ()))
end

(* n = 1000 sits just below 1024, so the update stage's 30 inserts add a
   level and the removes after them take it away again. *)
let n = 1000
let extra = 60

module Ints_case = struct
  module S = I.Ints

  let n = n
  let batch = extra / 2
  let removable = true
  let all = W.distinct_ints ~seed:5 ~n:(n + extra) ~bound:(100 * n)
  let keys = Array.sub all 0 n
  let extra = Array.sub all n extra

  (* Every fourth query is a stored key, so exact hits (node ranges) and
     gaps (link ranges) both route. *)
  let queries =
    let rng = Prng.create 0x11 in
    Array.init 150 (fun i -> if i mod 4 = 0 then keys.(Prng.int rng n) else Prng.int rng (100 * n))

  let scans =
    let rng = Prng.create 0x12 in
    Array.init 60 (fun i ->
        let lo = Prng.int rng (100 * n) in
        (lo, lo + Prng.int rng (if i mod 2 = 0 then 500 else 8_000)))

  let answer acc = function None -> mix acc min_int | Some x -> mix acc x
  let scan_answer = mix
end

module Points_case = struct
  module S = I.Points2d

  let n = n
  let batch = extra / 2
  let removable = true
  let all = W.uniform_points ~seed:6 ~n:(n + extra) ~dim:2
  let keys = Array.sub all 0 n
  let extra = Array.sub all n extra

  let queries =
    let probes = W.uniform_query_points ~seed:0x13 ~n:150 ~dim:2 in
    Array.mapi (fun i q -> if i mod 4 = 0 then keys.((i * 37) mod n) else q) probes

  let scans =
    let centers = W.uniform_query_points ~seed:0x14 ~n:60 ~dim:2 in
    Array.mapi
      (fun i c ->
        if i mod 2 = 0 then I.Knn { center = c; k = 1 + (i mod 7) }
        else
          let side = if i mod 4 = 1 then 0.05 else 0.3 in
          let hi = Array.map (fun x -> Float.min 0.999 (x +. side)) c in
          I.Box { lo = c; hi; limit = 5 })
      centers

  let answer acc (a : I.cell_answer) =
    let acc = mix acc a.I.cell_depth in
    match a.I.cell_point with None -> mix acc (-1) | Some p -> mix_point acc p

  let scan_answer acc = function
    | I.Box_hits { count; sample } -> List.fold_left mix_point (mix acc count) sample
    | I.Knn_hits hits ->
        List.fold_left (fun acc (p, d) -> mix_float (mix_point acc p) d) (mix acc (-2)) hits
end

module Strings_case = struct
  module S = I.Strings

  let n = n
  let batch = extra / 2
  let removable = true
  let all = W.random_strings ~seed:7 ~n:(n + extra) ~alphabet:4 ~len:10
  let keys = Array.sub all 0 n
  let extra = Array.sub all n extra
  let queries = W.string_queries ~seed:0x15 ~keys ~n:150

  let scans =
    let rng = Prng.create 0x16 in
    Array.init 60 (fun i ->
        let k = keys.(Prng.int rng n) in
        { I.prefix = String.sub k 0 (1 + (i mod 5)); scan_limit = 4 })

  let answer acc (a : I.trie_answer) = mix (mix_string acc a.I.lcp) a.I.matches
  let scan_answer acc (a : I.trie_scan_answer) =
    List.fold_left mix_string (mix acc a.I.total) a.I.strings
end

(* Trapezoidal maps: 600 segments, 30 single inserts, then a batch of
   150 more. (E21's full 1 500 segments take about 9 s on a 2-vCPU VM:
   every stage builds its own hierarchy, and each insertion scans the
   whole map.)
   Deletion is out of scope (§4), so the update stage is insert-only.
   Every scan is a point location. *)
module Segments_case = struct
  module S = I.Segments

  let n = 600
  let batch = 150
  let removable = false
  let all = W.disjoint_segments ~seed:8 ~n:(n + 180)
  let keys = Array.sub all 0 n
  let extra = Array.sub all n 180
  let queries = W.trapmap_query_points ~seed:0x18 ~n:150
  let scans = W.trapmap_query_points ~seed:0x19 ~n:60

  let answer acc (a : I.trap_answer) =
    let side acc = function None -> mix acc (-1) | Some id -> mix acc id in
    let lx, rx = a.I.xspan in
    mix_float (mix_float (side (side acc a.I.above) a.I.below) lx) rx

  let scan_answer = answer
end

module Ints_stages = Stages (Ints_case)
module Points_stages = Stages (Points_case)
module Strings_stages = Stages (Strings_case)
module Segments_stages = Stages (Segments_case)

(* A batch is the loop of its single operations. Twin hierarchies on
   twin networks take the same batch, one through [query]/[scan] in a
   loop and one through [query_batch]/[scan_batch] at jobs 1 and 2, from
   rngs of one seed: every answer, every per-query stat, every host's
   traffic, the message total and the session count must agree. The
   batches are empty, one query, three, 200, and one with repeats (ties
   in any processing order). Over a dead host at r = 1 the batch raises
   [Host_dead] at both jobs counts. *)
module Batch_loop (C : CASE) = struct
  module Hr = H.Make (C.S)

  let batches xs =
    let m = Array.length xs in
    let cycle k = Array.init k (fun i -> xs.((i * 7) mod m)) in
    let repeats = Array.map (fun i -> xs.(i)) [| 2; 0; 2; 1; 0; 0; 2 |] in
    [ [||]; [| xs.(0) |]; cycle 3; cycle 200; repeats ]

  let twin () =
    let net = Network.create ~hosts:C.n in
    (net, Hr.build ~net ~seed:41 C.keys)

  let same_hosts what (net1, _) (net2, _) =
    for host = 0 to C.n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: host %d traffic" what host)
        (Network.traffic net1 host) (Network.traffic net2 host)
    done;
    Alcotest.(check int) (what ^ ": messages") (Network.total_messages net1)
      (Network.total_messages net2);
    Alcotest.(check int) (what ^ ": sessions") (Network.sessions_started net1)
      (Network.sessions_started net2)

  (* [one] is the single operation, [many] the batch; [xs] a batch. *)
  let compare_one what ~one ~many ~pool xs =
    let loop = twin () and batch = twin () in
    List.iteri
      (fun b xs ->
        let what = Printf.sprintf "%s: %s batch %d (%d ops)" C.S.name what b (Array.length xs) in
        Network.reset_traffic (fst loop);
        Network.reset_traffic (fst batch);
        let seed = 0x61 + b in
        let want = Array.map (one (snd loop) ~rng:(Prng.create seed)) xs in
        let got = many ?pool (snd batch) ~rng:(Prng.create seed) xs in
        if want <> got then Alcotest.failf "%s: answers or stats differ" what;
        same_hosts what loop batch)
      (batches xs)

  (* The batch runs once on live hosts, then the host it visited most
     dies and the same batch, from the same rng seed, runs again. *)
  let dead_host what run ~pool =
    let net, h = twin () in
    run None h;
    let busiest = ref 0 in
    for host = 1 to C.n - 1 do
      if Network.traffic net host > Network.traffic net !busiest then busiest := host
    done;
    Network.kill net !busiest;
    match run pool h with
    | () -> Alcotest.failf "%s: %s batch over a dead host did not raise" C.S.name what
    | exception Network.Host_dead _ -> ()

  let run () =
    List.iter
      (fun jobs ->
        Skipweb_util.Pool.with_pool ~jobs (fun pool ->
            let jobs = Printf.sprintf "jobs %d" jobs in
            compare_one ("query " ^ jobs) ~one:(fun h ~rng q -> Hr.query h ~rng q)
              ~many:Hr.query_batch ~pool C.queries;
            compare_one ("scan " ^ jobs) ~one:(fun h ~rng sc -> Hr.scan h ~rng sc)
              ~many:Hr.scan_batch ~pool C.scans;
            dead_host "query" ~pool (fun pool h ->
                ignore (Hr.query_batch ?pool h ~rng:(Prng.create 3) C.queries));
            dead_host "scan" ~pool (fun pool h ->
                ignore (Hr.scan_batch ?pool h ~rng:(Prng.create 3) C.scans))))
      [ 1; 2 ]
end

module Ints_batch = Batch_loop (Ints_case)
module Points_batch = Batch_loop (Points_case)
module Strings_batch = Batch_loop (Strings_case)
module Segments_batch = Batch_loop (Segments_case)

let pinned_ints =
  [
    [ 3045353664109306450; 4608421768291945187; 3398908302889395518 ];
    [ 2117776597301002293; 4575829757190398426; 73103922350403563 ];
    [ 1604432687703199626; 645068441771622074; 2301363243827021984 ];
    [ 3947166529183699811; 849828993667111114; 3418143731393185036 ];
    [ 1451076027789576979; 2473839633005733007; 4575945402231401344 ];
    [ 3024908161633195634; 3187207903139544223; 451083669654855003 ];
    [ 3856872964647520895; 2021959894775747483; 91276467534094523 ];
    [ 3042483907159807762; 1481144418022358120; 3823263951659644765 ];
  ]

let pinned_points =
  [
    [ 2519240693802253472; 1125481371265062878; 3815462821513619170 ];
    [ 4158882358705316944; 3680171891303254447; 1934493493857591125 ];
    [ 1435375735742076162; 2137846687945899644; 1832368482647794103 ];
    [ 2347487298028266341; 4476113224836289828; 1686816077111391444 ];
    [ 2293513351069370792; 2175590943947201945; 4104466654698520806 ];
    [ 17817267869477440; 1864397145778576171; 3543786531637287802 ];
    [ 4050300156195168723; 2424401280123955524; 3999929034977149428 ];
    [ 3308876429927542594; 2035557353308310344; 4042446639499788432 ];
  ]

let pinned_strings =
  [
    [ 1733842878149146714; 1487989985231474972; 2853648457356297870 ];
    [ 135040001390282491; 1487989985231474972; 2844537564569271913 ];
    [ 4272628642987442483; 4566785575704392005; 2467463759022652850 ];
    [ 1566465449788365865; 1235519327983658806; 2374697055257690853 ];
    [ 1107925159619621610; 3347488947349477035; 1377009728001383514 ];
    [ 3010775436583409545; 3347488947349477035; 442145587633835007 ];
    [ 694161050618450885; 585421897796446710; 636228183557720670 ];
    [ 3033414324026233260; 3897452203091454374; 4607229421747272966 ];
  ]

let pinned_segments =
  [
    [ 3678760609361461464; 846438738762593050; 3440925801634607379 ];
    [ 306237950637524749; 2187038944193281514; 4086436654767781114 ];
    [ 2963671072872535883; 526923306104686995; 2292566500375364674 ];
    [ 546492335329218372; 292297690090134089; 3032764409885089281 ];
    [ 3151007761794766392; 4408485368013312836; 598291432254797521 ];
    [ 1106941387318001650; 2514295448228559783; 1217147973425098577 ];
    [ 4505258832637983552; 2814963197194760256; 3735610372577106253 ];
    [ 645615943147825916; 2814963197194760256; 1279577405083855406 ];
  ]

(* The shared empty set. Every slot whose prefix no element carries holds
   one structure, [absent], shared by every hierarchy of a functor
   application. Two hierarchies of one application churn in interleaved
   steps, one written on the calling domain and one through a 2-domain
   pool, at a size where the high levels' sets empty and refill and the
   ground set now and then empties outright. After every step both keep
   every invariant, scan as a brute-force model does, and agree on
   answers, total messages and every host's memory. A write that reached
   [absent] would leak keys into the other hierarchy's empty slots. *)
module type CHURN_CASE = sig
  module S : Skipweb_core.Range_structure.S

  val universe : S.key array
  val queries : S.query array
  val scans : S.scan array

  val expect : S.key list -> S.scan -> S.scan_answer -> bool
  (** Does the answer match a brute-force scan over the stored keys? *)
end

module Shared_empty (C : CHURN_CASE) = struct
  module Hr = H.Make (C.S)

  let hosts = 16

  let run () =
    Skipweb_util.Pool.with_pool ~jobs:2 (fun pool ->
        let initial = Array.sub C.universe 0 12 in
        let net1 = Network.create ~hosts and net2 = Network.create ~hosts in
        let h1 = Hr.build ~net:net1 ~seed:23 initial in
        let h2 = Hr.build ~net:net2 ~seed:23 ?pool initial in
        let rng1 = Prng.create 0x51 and rng2 = Prng.create 0x51 and ops = Prng.create 0x52 in
        let stored = Hashtbl.create 64 in
        Array.iter (fun k -> Hashtbl.replace stored k ()) initial;
        let pick () = C.universe.(Prng.int ops (Array.length C.universe)) in
        let some () = Array.init (1 + Prng.int ops 12) (fun _ -> pick ()) in
        for step = 1 to 300 do
          let what = Printf.sprintf "%s step %d" C.S.name step in
          (match Prng.int ops 4 with
          | 0 ->
              let k = pick () in
              Alcotest.(check int) (what ^ ": insert bill") (Hr.insert h1 k) (Hr.insert h2 k);
              Hashtbl.replace stored k ()
          | 1 ->
              let k = pick () in
              Alcotest.(check int) (what ^ ": remove bill") (Hr.remove h1 k) (Hr.remove h2 k);
              Hashtbl.remove stored k
          | 2 ->
              let ks = some () in
              Alcotest.(check int) (what ^ ": insert_batch") (Hr.insert_batch h1 ks)
                (Hr.insert_batch ?pool h2 ks);
              Array.iter (fun k -> Hashtbl.replace stored k ()) ks
          | _ ->
              (* Removing more than is stored empties the hierarchy. *)
              let ks = if step mod 5 = 0 then C.universe else some () in
              Alcotest.(check int) (what ^ ": remove_batch") (Hr.remove_batch h1 ks)
                (Hr.remove_batch ?pool h2 ks);
              Array.iter (Hashtbl.remove stored) ks);
          Hr.check_invariants h1;
          Hr.check_invariants h2;
          Alcotest.(check int) (what ^ ": size") (Hashtbl.length stored) (Hr.size h1);
          if Hr.size h1 > 0 then begin
            let model = List.of_seq (Hashtbl.to_seq_keys stored) in
            let a1 = Hr.scan_batch h1 ~rng:rng1 C.scans
            and a2 = Hr.scan_batch ?pool h2 ~rng:rng2 C.scans in
            Array.iteri
              (fun i sc ->
                if not (C.expect model sc (fst a1.(i))) then Alcotest.failf "%s: scan %d" what i)
              C.scans;
            if a1 <> a2 then Alcotest.failf "%s: scans differ across jobs" what;
            if Hr.query_batch h1 ~rng:rng1 C.queries <> Hr.query_batch ?pool h2 ~rng:rng2 C.queries
            then Alcotest.failf "%s: queries differ across jobs" what
          end;
          Alcotest.(check int) (what ^ ": messages") (Network.total_messages net1)
            (Network.total_messages net2);
          for host = 0 to hosts - 1 do
            Alcotest.(check int)
              (Printf.sprintf "%s: host %d memory" what host)
              (Network.memory net1 host) (Network.memory net2 host)
          done
        done)
end

module Ints_churn = Shared_empty (struct
  module S = I.Ints

  let universe = W.distinct_ints ~seed:9 ~n:40 ~bound:1000
  let queries = Array.init 8 (fun i -> (i * 131) mod 1000)
  let scans = Array.init 6 (fun i -> (i * 150, (i * 150) + 40 + (i * 60)))

  let expect model (lo, hi) count =
    count = List.length (List.filter (fun k -> lo <= k && k <= hi) model)
end)

module Points_churn = Shared_empty (struct
  module S = I.Points2d

  let universe = W.uniform_points ~seed:10 ~n:40 ~dim:2
  let queries = W.uniform_query_points ~seed:0x53 ~n:8 ~dim:2

  let scans =
    Array.mapi
      (fun i c -> I.Knn { center = c; k = 1 + (i mod 3) })
      (W.uniform_query_points ~seed:0x54 ~n:6 ~dim:2)

  (* The quadtree stores and returns grid points, so the model snaps
     its keys to the grid before ranking them. *)
  let expect model sc answer =
    let module P = Skipweb_geom.Point in
    match (sc, answer) with
    | I.Knn { center; k }, I.Knn_hits hits ->
        let snap p = P.of_grid (P.to_grid p) in
        let by_distance =
          List.sort compare (List.map (fun p -> (P.dist_sq (snap p) center, snap p)) model)
        in
        List.map fst hits = List.filteri (fun i _ -> i < k) (List.map snd by_distance)
    | _ -> false
end)

let suite =
  [
    Alcotest.test_case "pinned routing digest: sorted list" `Quick (Ints_stages.check pinned_ints);
    Alcotest.test_case "pinned routing digest: quadtree" `Quick (Points_stages.check pinned_points);
    Alcotest.test_case "pinned routing digest: trie" `Quick (Strings_stages.check pinned_strings);
    Alcotest.test_case "pinned routing digest: trapezoidal map" `Quick
      (Segments_stages.check pinned_segments);
    Alcotest.test_case "batch = loop: sorted list" `Quick Ints_batch.run;
    Alcotest.test_case "batch = loop: quadtree" `Quick Points_batch.run;
    Alcotest.test_case "batch = loop: trie" `Quick Strings_batch.run;
    Alcotest.test_case "batch = loop: trapezoidal map" `Quick Segments_batch.run;
    Alcotest.test_case "shared empty set: sorted list churn, jobs 1 = 2" `Quick Ints_churn.run;
    Alcotest.test_case "shared empty set: quadtree churn, jobs 1 = 2" `Quick Points_churn.run;
  ]
