(* Tests for the Table 1 baselines: skip graphs, NoN skip graphs, family
   trees, deterministic SkipNet, bucket skip graphs. *)

module Network = Skipweb_net.Network
module SG = Skipweb_skipgraph.Skip_graph
module NoN = Skipweb_skipgraph.Non_skip_graph
module FT = Skipweb_skipgraph.Family_tree
module DS = Skipweb_skipgraph.Det_skipnet
module BSG = Skipweb_skipgraph.Bucket_skip_graph
module LL = Skipweb_skipgraph.Level_lists
module Lk = Skipweb_linklist.Linklist
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))

let keys n = W.distinct_ints ~seed:42 ~n ~bound:(100 * n)

(* ------- Level_lists ------- *)

let test_level_lists_basics () =
  let ll = LL.create ~seed:1 ~keys:(keys 64) in
  LL.check_invariants ll;
  checki "size" 64 (LL.size ll);
  checkb "levels log-ish" true (LL.levels ll >= 4 && LL.levels ll <= 30);
  (* splice round trip *)
  let pos, _ = LL.splice_in ll 999_999_999 in
  checkb "inserted at end" true (pos = 64);
  checkb "mem" true (LL.mem ll 999_999_999);
  ignore (LL.splice_out ll 999_999_999);
  checkb "gone" false (LL.mem ll 999_999_999);
  LL.check_invariants ll

let test_level_lists_neighbor_scan () =
  let ll = LL.create ~seed:2 ~keys:(keys 32) in
  (* Level-0 neighbors are adjacent positions. *)
  for i = 0 to 30 do
    Alcotest.(check (option int)) "level-0 right" (Some (i + 1)) (LL.right_neighbor ll i 0);
    Alcotest.(check (option int)) "level-0 left" (Some i) (LL.left_neighbor ll (i + 1) 0)
  done;
  Alcotest.(check (option int)) "right end" None (LL.right_neighbor ll 31 0)

(* The bottom-up linking walk of the insertion protocol, read through the
   public neighbor queries once the element at [pos] is in: at each level L
   it walks the level-(L-1) list outward until it meets elements sharing L
   bits, paying one message per element passed and 2 to link. *)
let reference_linking ll pos =
  let rec walk step level j steps =
    match j with
    | None -> (steps, None)
    | Some j ->
        if LL.common_prefix ll pos j >= level then (steps, Some j)
        else walk step level (step j) (steps + 1)
  in
  let rec up level msgs =
    let side step = walk step level (step pos) 0 in
    let lsteps, l = side (fun j -> LL.left_neighbor ll j (level - 1)) in
    let rsteps, r = side (fun j -> LL.right_neighbor ll j (level - 1)) in
    if l = None && r = None then msgs else up (level + 1) (msgs + lsteps + rsteps + 2)
  in
  up 1 2

(* Random splices over 0-40 keys that shrink to empty, then regrow to 40
   (which must open new top levels). After every splice the maintained
   tables equal a fresh sweep, and the linking count equals the
   reference walk. *)
let test_level_lists_splice_model () =
  for seed = 0 to 99 do
    let rng = Prng.create seed in
    let ll = LL.create ~seed ~keys:(W.distinct_ints ~seed ~n:(seed mod 41) ~bound:100) in
    let growing = ref false and drained = ref false and new_top = ref false in
    for _ = 1 to 200 do
      let n = LL.size ll in
      if n = 0 then (drained := true; growing := true) else if n = 40 then growing := false;
      if n = 0 || (n < 40 && Prng.coin rng ~p:(if !growing then 0.8 else 0.2)) then begin
        let rec fresh () =
          let k = Prng.int rng 100 in
          if LL.mem ll k then fresh () else k
        in
        let k = fresh () and levels = LL.levels ll in
        let pos, msgs = LL.splice_in ll k in
        checki "spliced at its position" k (LL.key ll pos);
        checki "linking = reference walk" (reference_linking ll pos) msgs;
        if LL.levels ll > levels then new_top := true
      end
      else ignore (LL.splice_out ll (LL.key ll (Prng.int rng n)));
      LL.check_invariants ll
    done;
    checkb "drained to empty" true !drained;
    checkb "opened a new top level" true !new_top
  done

(* ------- Skip graphs ------- *)

let make_sg n =
  let net = Network.create ~hosts:(n + 64) in
  (net, SG.create ~net ~seed:7 ~keys:(keys n))

let test_sg_search_correct () =
  let _, sg = make_sg 256 in
  let ks = SG.keys sg in
  let rng = Prng.create 9 in
  let queries = W.query_mix ~seed:10 ~keys:ks ~n:200 ~bound:25_600 in
  Array.iter
    (fun q ->
      let r = SG.search_from_random sg ~rng q in
      check_opt "pred" (Lk.predecessor ks q) r.SG.predecessor;
      check_opt "succ" (Lk.successor ks q) r.SG.successor;
      check_opt "nearest" (Lk.nearest ks q) r.SG.nearest)
    queries

let test_sg_messages_logarithmic () =
  let _, sg = make_sg 1024 in
  let rng = Prng.create 11 in
  let total = ref 0 in
  for i = 0 to 199 do
    let r = SG.search_from_random sg ~rng (i * 512) in
    total := !total + r.SG.messages
  done;
  let mean = float_of_int !total /. 200.0 in
  (* Expected ~ 2 log2 1024 = 20; generous sanity bound. *)
  checkb "search messages logarithmic" true (mean > 2.0 && mean < 60.0)

let test_sg_memory_logarithmic () =
  let net, sg = make_sg 1024 in
  ignore net;
  let mems = SG.memory_per_host sg in
  let worst = List.fold_left max 0 mems in
  checkb "per-host memory O(log n)" true (worst <= 2 + (2 * 40))

let test_sg_insert_delete () =
  let _, sg = make_sg 128 in
  let cost = SG.insert sg 999_999 in
  checkb "insert cost positive" true (cost > 0);
  checkb "searchable" true ((SG.search sg ~from:0 999_999).SG.predecessor = Some 999_999);
  SG.check_invariants sg;
  let dcost = SG.delete sg 999_999 in
  checkb "delete cost positive" true (dcost > 0);
  checkb "gone" true ((SG.search sg ~from:0 999_999).SG.predecessor <> Some 999_999);
  SG.check_invariants sg;
  checkb "duplicate insert rejected" true
    (try
       ignore (SG.insert sg (SG.keys sg).(0));
       false
     with Invalid_argument _ -> true)

let test_sg_empty () =
  let net = Network.create ~hosts:4 in
  let sg = SG.create ~net ~seed:1 ~keys:[||] in
  let r = SG.search sg ~from:0 5 in
  checkb "empty search" true (r.SG.nearest = None && r.SG.messages = 0)

(* ------- NoN skip graphs ------- *)

let test_non_search_correct () =
  let net = Network.create ~hosts:300 in
  let g = NoN.create ~net ~seed:13 ~keys:(keys 256) in
  let ks = keys 256 in
  let rng = Prng.create 14 in
  let queries = W.query_mix ~seed:15 ~keys:ks ~n:200 ~bound:25_600 in
  Array.iter
    (fun q ->
      let r = NoN.search_from_random g ~rng q in
      check_opt "pred" (Lk.predecessor ks q) r.predecessor;
      check_opt "nearest" (Lk.nearest ks q) r.nearest)
    queries

let test_non_fewer_hops_than_plain () =
  let n = 2048 in
  let net1 = Network.create ~hosts:(n + 8) and net2 = Network.create ~hosts:(n + 8) in
  let sg = SG.create ~net:net1 ~seed:7 ~keys:(keys n) in
  let non = NoN.create ~net:net2 ~seed:7 ~keys:(keys n) in
  let rng1 = Prng.create 20 and rng2 = Prng.create 20 in
  let sgm = ref 0 and nonm = ref 0 in
  for i = 0 to 149 do
    let q = i * 1357 in
    sgm := !sgm + (SG.search_from_random sg ~rng:rng1 q).SG.messages;
    nonm := !nonm + (NoN.search_from_random non ~rng:rng2 q).messages
  done;
  checkb "lookahead helps" true (!nonm < !sgm)

let test_non_memory_larger () =
  let n = 512 in
  let net1 = Network.create ~hosts:(n + 8) and net2 = Network.create ~hosts:(n + 8) in
  let sg = SG.create ~net:net1 ~seed:7 ~keys:(keys n) in
  let non = NoN.create ~net:net2 ~seed:7 ~keys:(keys n) in
  let max_l = List.fold_left max 0 in
  checkb "NoN tables cost memory" true (max_l (NoN.memory_per_host non) > max_l (SG.memory_per_host sg))

let test_non_update_costlier () =
  let n = 512 in
  let net1 = Network.create ~hosts:(n + 8) and net2 = Network.create ~hosts:(n + 8) in
  let sg = SG.create ~net:net1 ~seed:7 ~keys:(keys n) in
  let non = NoN.create ~net:net2 ~seed:7 ~keys:(keys n) in
  let c1 = SG.insert sg 123_456_789 in
  let c2 = NoN.insert non 123_456_789 in
  checkb "NoN insert pays for tables" true (c2 > c1);
  ignore (NoN.delete non 123_456_789);
  ignore (SG.delete sg 123_456_789)

(* Ids are never reused, so a delete frees no host for the next insert:
   with 8 keys on 9 hosts, the second insert has no host left for its
   fresh id and must be refused before anything moves. *)
let test_no_spare_host () =
  List.iter
    (fun (name, (module G : SG.S)) ->
      let net = Network.create ~hosts:9 in
      let g = G.create ~net ~seed:3 ~keys:[| 10; 20; 30; 40; 50; 60; 70; 80 |] in
      ignore (G.insert g 5);
      ignore (G.delete g 5);
      let state () = (G.size g, G.keys g, Network.total_memory net) in
      let before = state () in
      Alcotest.check_raises name (Invalid_argument (name ^ ".insert: no spare host")) (fun () ->
          ignore (G.insert g 7));
      checkb (name ^ " unchanged") true (state () = before);
      G.check_invariants g;
      checkb (name ^ " searchable") true ((G.search g ~from:0 80).predecessor = Some 80))
    [ ("Skip_graph", (module SG : SG.S)); ("Non_skip_graph", (module NoN : SG.S)) ]

(* ------- Family trees (constant-degree comparator) ------- *)

let test_ft_search_correct () =
  let net = Network.create ~hosts:600 in
  let ks = keys 500 in
  let ft = FT.create ~net ~seed:21 ~keys:ks in
  FT.check_invariants ft;
  let queries = W.query_mix ~seed:22 ~keys:ks ~n:200 ~bound:50_000 in
  Array.iter
    (fun q ->
      let r = FT.search ft ~from:0 q in
      check_opt "pred" (Lk.predecessor ks q) r.predecessor;
      check_opt "succ" (Lk.successor ks q) r.successor)
    queries

let test_ft_constant_degree () =
  let net = Network.create ~hosts:3000 in
  let ft = FT.create ~net ~seed:23 ~keys:(keys 2000) in
  checkb "max degree O(1)" true (FT.max_degree ft <= 3);
  List.iter (fun m -> checkb "O(1) memory" true (m <= 5)) (FT.memory_per_host ft)

let test_ft_depth_logarithmic () =
  let net = Network.create ~hosts:5000 in
  let ft = FT.create ~net ~seed:24 ~keys:(keys 4096) in
  checkb "depth O(log n)" true (FT.depth ft <= 50)

let test_ft_insert_delete () =
  let net = Network.create ~hosts:300 in
  let ft = FT.create ~net ~seed:25 ~keys:(keys 128) in
  let c = FT.insert ft 424_242 in
  checkb "insert cost positive" true (c > 0);
  FT.check_invariants ft;
  checkb "found" true ((FT.search ft ~from:0 424_242).predecessor = Some 424_242);
  let d = FT.delete ft 424_242 in
  checkb "delete cost positive" true (d > 0);
  FT.check_invariants ft;
  checki "size restored" 128 (FT.size ft)

(* ------- Deterministic SkipNet ------- *)

let test_ds_build_invariants () =
  List.iter
    (fun n ->
      let net = Network.create ~hosts:(2 * n + 16) in
      let ds = DS.create ~net ~keys:(keys n) in
      DS.check_invariants ds;
      checkb "height O(log n)" true (DS.height ds <= 3 + (2 * 14)))
    [ 1; 2; 3; 7; 64; 500; 1024 ]

let test_ds_search_correct () =
  let net = Network.create ~hosts:600 in
  let ks = keys 400 in
  let ds = DS.create ~net ~keys:ks in
  let queries = W.query_mix ~seed:26 ~keys:ks ~n:200 ~bound:40_000 in
  Array.iter
    (fun q ->
      let r = DS.search ds ~from:0 q in
      check_opt "pred" (Lk.predecessor ks q) r.predecessor;
      check_opt "succ" (Lk.successor ks q) r.successor)
    queries

let test_ds_insert_maintains_invariant () =
  let net = Network.create ~hosts:1200 in
  let ds = DS.create ~net ~keys:(keys 64) in
  let rng = Prng.create 27 in
  for _ = 1 to 400 do
    let k = Prng.int rng 1_000_000 in
    (try ignore (DS.insert ds k) with Invalid_argument _ -> ());
    DS.check_invariants ds
  done;
  checkb "grew" true (DS.size ds > 64)

let test_ds_sequential_inserts () =
  (* Sorted insertion order is the classic worst case for naive structures;
     the 1-2-3 invariant must hold throughout. *)
  let net = Network.create ~hosts:600 in
  let ds = DS.create ~net ~keys:[| 0 |] in
  for k = 1 to 300 do
    ignore (DS.insert ds (k * 10));
    DS.check_invariants ds
  done;
  let r = DS.search ds ~from:0 1495 in
  check_opt "pred after inserts" (Some 1490) r.predecessor


let test_ds_delete_basic () =
  let net = Network.create ~hosts:600 in
  let ks = keys 200 in
  let ds = DS.create ~net ~keys:ks in
  let cost = DS.delete ds ks.(100) in
  checkb "delete cost positive" true (cost > 0);
  DS.check_invariants ds;
  checki "size shrank" 199 (DS.size ds);
  checkb "gone" true ((DS.search ds ~from:0 ks.(100)).predecessor <> Some ks.(100));
  checkb "absent delete rejected" true
    (try
       ignore (DS.delete ds ks.(100));
       false
     with Invalid_argument _ -> true)

let test_ds_delete_all () =
  let net = Network.create ~hosts:400 in
  let ks = keys 128 in
  let ds = DS.create ~net ~keys:ks in
  Array.iter
    (fun k ->
      ignore (DS.delete ds k);
      DS.check_invariants ds)
    ks;
  checki "emptied" 0 (DS.size ds)

let qcheck_ds_mixed_ops =
  QCheck.Test.make ~name:"det skipnet mixed insert/delete keeps 1-2-3 invariant" ~count:40
    QCheck.(pair small_int (int_range 20 250))
    (fun (seed, ops) ->
      let net = Network.create ~hosts:2000 in
      let ds = DS.create ~net ~keys:[| 500_000 |] in
      let rng = Prng.create seed in
      let module IS = Set.Make (Int) in
      let model = ref (IS.singleton 500_000) in
      for _ = 1 to ops do
        let k = Prng.int rng 1_000_000 in
        if Prng.coin rng ~p:0.6 then begin
          if not (IS.mem k !model) then begin
            ignore (DS.insert ds k);
            model := IS.add k !model
          end
        end
        else if IS.cardinal !model > 1 then begin
          let victim = IS.choose !model in
          ignore (DS.delete ds victim);
          model := IS.remove victim !model
        end;
        DS.check_invariants ds
      done;
      (* The surviving keys answer searches correctly. *)
      IS.for_all
        (fun k -> (DS.search ds ~from:0 k).predecessor = Some k)
        !model
      && DS.size ds = IS.cardinal !model)

(* ------- Bucket skip graphs ------- *)

let test_bsg_search_correct () =
  let net = Network.create ~hosts:64 in
  let ks = keys 512 in
  let b = BSG.create ~net ~seed:31 ~keys:ks ~buckets:32 in
  BSG.check_invariants b;
  let rng = Prng.create 32 in
  let queries = W.query_mix ~seed:33 ~keys:ks ~n:300 ~bound:51_200 in
  Array.iter
    (fun q ->
      let r = BSG.search b ~rng q in
      check_opt "pred" (Lk.predecessor ks q) r.predecessor;
      check_opt "succ" (Lk.successor ks q) r.successor;
      check_opt "nearest" (Lk.nearest ks q) r.nearest)
    queries

let test_bsg_fewer_messages_than_flat () =
  let n = 2048 in
  let net1 = Network.create ~hosts:(n + 8) and net2 = Network.create ~hosts:64 in
  let sg = SG.create ~net:net1 ~seed:7 ~keys:(keys n) in
  let b = BSG.create ~net:net2 ~seed:7 ~keys:(keys n) ~buckets:32 in
  let rng1 = Prng.create 34 and rng2 = Prng.create 34 in
  let m1 = ref 0 and m2 = ref 0 in
  for i = 0 to 99 do
    let q = i * 2040 in
    m1 := !m1 + (SG.search_from_random sg ~rng:rng1 q).SG.messages;
    m2 := !m2 + (BSG.search b ~rng:rng2 q).messages
  done;
  checkb "log H < log n messages" true (!m2 < !m1)

let test_bsg_insert_delete_and_split () =
  let net = Network.create ~hosts:64 in
  let b = BSG.create ~net ~seed:35 ~keys:(keys 128) ~buckets:8 in
  let rng = Prng.create 36 in
  let before = BSG.bucket_count b in
  for k = 0 to 299 do
    let key = 1_000_000 + (k * 7) in
    ignore (BSG.insert b ~rng key)
  done;
  BSG.check_invariants b;
  checkb "splits happened" true (BSG.bucket_count b > before);
  checki "all present" (128 + 300) (BSG.size b);
  ignore (BSG.delete b ~rng 1_000_000);
  BSG.check_invariants b;
  checki "deleted" (128 + 299) (BSG.size b)

let qcheck_sg_search_matches_oracle =
  QCheck.Test.make ~name:"skip graph search = sorted-array oracle" ~count:60
    QCheck.(triple small_int (int_range 1 128) (int_range 0 20_000))
    (fun (seed, n, q) ->
      let ks = W.distinct_ints ~seed:(seed + 1) ~n ~bound:20_000 in
      let net = Network.create ~hosts:(n + 4) in
      let sg = SG.create ~net ~seed ~keys:ks in
      let r = SG.search sg ~from:(seed mod n) q in
      r.SG.predecessor = Lk.predecessor ks q && r.SG.successor = Lk.successor ks q)

let qcheck_ds_random_build_invariants =
  QCheck.Test.make ~name:"det skipnet invariants over random sizes" ~count:40
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let ks = W.distinct_ints ~seed:(seed + 2) ~n ~bound:(20 * n + 40) in
      let net = Network.create ~hosts:(n + 8) in
      let ds = DS.create ~net ~keys:ks in
      DS.check_invariants ds;
      true)

(* ------- pinned message-model invariance guards ------- *)

(* Totals captured on the flat-array representation before the chunked
   container migration; the chunked code must reproduce them bit-for-bit
   (the container is host-local and must be invisible to the message
   model). *)

let test_pinned_det_skipnet_churn_messages () =
  let bound = 10_000 in
  let ks = W.distinct_ints ~seed:4 ~n:200 ~bound in
  let net = Network.create ~hosts:1024 in
  let t = DS.create ~net ~keys:ks in
  let pool = Hashtbl.create 64 in
  let data = ref (Array.copy ks) in
  let len = ref (Array.length ks) in
  Array.iteri (fun i k -> Hashtbl.replace pool k i) !data;
  let pool_mem k = Hashtbl.mem pool k in
  let pool_add k =
    if not (pool_mem k) then begin
      if !len = Array.length !data then begin
        let b = Array.make (max 8 (2 * !len)) 0 in
        Array.blit !data 0 b 0 !len;
        data := b
      end;
      !data.(!len) <- k;
      Hashtbl.replace pool k !len;
      len := !len + 1
    end
  in
  let pool_take rng =
    if !len = 0 then None
    else begin
      let i = Prng.int rng !len in
      let k = !data.(i) in
      let last = !len - 1 in
      !data.(i) <- !data.(last);
      Hashtbl.replace pool !data.(i) i;
      len := last;
      Hashtbl.remove pool k;
      Some k
    end
  in
  let rng = Prng.create 0xfeed in
  let ops = ref 0 in
  for i = 0 to 149 do
    match i mod 4 with
    | 0 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if pool_mem k then fresh () else k
        in
        let k = fresh () in
        ops := !ops + DS.insert t k;
        pool_add k
    | 1 -> (
        match pool_take rng with
        | Some k -> ops := !ops + DS.delete t k
        | None -> ())
    | _ ->
        let r = DS.search t ~from:0 (Prng.int rng bound) in
        ops := !ops + r.messages
  done;
  DS.check_invariants t;
  checki "pinned op messages" 1260 !ops;
  checki "pinned network total" 804 (Network.total_messages net);
  checki "pinned final size" 200 (DS.size t)

(* Searches from random origins, inserts of fresh keys and deletes of
   random stored keys, interleaved: deleting original keys takes tall
   towers out and lowers their neighbours' heights, which the
   insert-then-delete pins of Table 1 and [stats] never do. Returns the
   billed messages, the network's message and memory totals, and the
   final size. *)
let overlay_churn (module G : SG.S) =
  let n = 300 and ops = 360 and bound = 60_000 in
  let net = Network.create ~hosts:(n + ops) in
  let g = G.create ~net ~seed:19 ~keys:(W.distinct_ints ~seed:8 ~n ~bound) in
  let rng = Prng.create 0xc42a in
  let billed = ref 0 in
  for i = 0 to ops - 1 do
    match i mod 3 with
    | 0 -> billed := !billed + (G.search_from_random g ~rng (Prng.int rng bound)).messages
    | 1 ->
        let rec fresh () =
          let k = Prng.int rng bound in
          if G.position g k < G.size g && G.key g (G.position g k) = k then fresh () else k
        in
        billed := !billed + G.insert g (fresh ())
    | _ -> billed := !billed + G.delete g (G.key g (Prng.int rng (G.size g)))
  done;
  G.check_invariants g;
  (!billed, Network.total_messages net, Network.total_memory net, G.size g)

let test_pinned_overlay_churn () =
  List.iter
    (fun (name, g, (billed, total, memory)) ->
      let b, t, m, size = overlay_churn g in
      checki (name ^ " pinned billed messages") billed b;
      checki (name ^ " pinned network total") total t;
      checki (name ^ " pinned network memory") memory m;
      checki (name ^ " pinned final size") 300 size)
    [
      ("Skip_graph", (module SG : SG.S), (8532, 2370, 6406));
      ("Non_skip_graph", (module NoN : SG.S), (84103, 895, 54566));
    ]

let test_pinned_level_lists_fingerprint () =
  (* Level_lists has no network; fingerprint the structure state the
     skip-graph routing depends on: positions, ids, heights, neighbors. *)
  let ks = W.distinct_ints ~seed:11 ~n:150 ~bound:5000 in
  let t = LL.create ~seed:11 ~keys:ks in
  let rng = Prng.create 0xabba in
  for i = 0 to 59 do
    if i mod 2 = 0 then begin
      let rec fresh () =
        let k = Prng.int rng 5000 in
        if LL.mem t k then fresh () else k
      in
      ignore (LL.splice_in t (fresh ()))
    end
    else begin
      let n = LL.size t in
      let k = LL.key t (Prng.int rng n) in
      ignore (LL.splice_out t k)
    end
  done;
  LL.check_invariants t;
  let acc = ref 0 in
  for i = 0 to LL.size t - 1 do
    acc := !acc + (LL.key t i * 3) + (LL.id t i * 7) + (LL.top_level t i * 11);
    (match LL.right_neighbor t i 1 with Some j -> acc := !acc + (13 * j) | None -> ());
    (match LL.left_neighbor t i 2 with Some j -> acc := !acc + (17 * j) | None -> ())
  done;
  checki "pinned fingerprint" 1501041 !acc;
  checki "pinned size" 150 (LL.size t);
  checki "pinned levels" 13 (LL.levels t)

let suite =
  [
    Alcotest.test_case "level lists basics" `Quick test_level_lists_basics;
    Alcotest.test_case "level lists neighbors" `Quick test_level_lists_neighbor_scan;
    Alcotest.test_case "level lists splices = fresh sweep and reference walk" `Quick
      test_level_lists_splice_model;
    Alcotest.test_case "skip graph search correct" `Quick test_sg_search_correct;
    Alcotest.test_case "skip graph messages log" `Quick test_sg_messages_logarithmic;
    Alcotest.test_case "skip graph memory log" `Quick test_sg_memory_logarithmic;
    Alcotest.test_case "skip graph insert/delete" `Quick test_sg_insert_delete;
    Alcotest.test_case "skip graph empty" `Quick test_sg_empty;
    Alcotest.test_case "NoN search correct" `Quick test_non_search_correct;
    Alcotest.test_case "NoN fewer hops" `Quick test_non_fewer_hops_than_plain;
    Alcotest.test_case "NoN memory larger" `Quick test_non_memory_larger;
    Alcotest.test_case "NoN update costlier" `Quick test_non_update_costlier;
    Alcotest.test_case "skip graphs refuse an insert with no spare host" `Quick test_no_spare_host;
    Alcotest.test_case "family tree search correct" `Quick test_ft_search_correct;
    Alcotest.test_case "family tree constant degree" `Quick test_ft_constant_degree;
    Alcotest.test_case "family tree depth log" `Quick test_ft_depth_logarithmic;
    Alcotest.test_case "family tree insert/delete" `Quick test_ft_insert_delete;
    Alcotest.test_case "det skipnet build invariants" `Quick test_ds_build_invariants;
    Alcotest.test_case "det skipnet search correct" `Quick test_ds_search_correct;
    Alcotest.test_case "det skipnet insert invariant" `Quick test_ds_insert_maintains_invariant;
    Alcotest.test_case "det skipnet sequential inserts" `Quick test_ds_sequential_inserts;
    Alcotest.test_case "det skipnet delete basic" `Quick test_ds_delete_basic;
    Alcotest.test_case "det skipnet delete all" `Quick test_ds_delete_all;
    QCheck_alcotest.to_alcotest qcheck_ds_mixed_ops;
    Alcotest.test_case "bucket skip graph search correct" `Quick test_bsg_search_correct;
    Alcotest.test_case "bucket skip graph fewer messages" `Quick test_bsg_fewer_messages_than_flat;
    Alcotest.test_case "bucket skip graph splits" `Quick test_bsg_insert_delete_and_split;
    QCheck_alcotest.to_alcotest qcheck_sg_search_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_ds_random_build_invariants;
    Alcotest.test_case "pinned det skipnet churn messages" `Quick
      test_pinned_det_skipnet_churn_messages;
    Alcotest.test_case "pinned skip graph and NoN churn" `Quick test_pinned_overlay_churn;
    Alcotest.test_case "pinned level lists fingerprint" `Quick
      test_pinned_level_lists_fingerprint;
  ]
