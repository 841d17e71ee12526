(* Tests for the parallel read and write paths: the domain pool itself
   (static chunking and the dynamic largest-first dispatcher), the
   per-index PRNG streams, metrics shard merging, and — the property the
   whole design hangs on — parallel query batches AND parallel bulk
   builds / batch churn being bit-identical to the sequential runs for
   every jobs count. *)

module Pool = Skipweb_util.Pool
module Prng = Skipweb_util.Prng
module Metrics = Skipweb_util.Metrics
module Stats = Skipweb_util.Stats
module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload

module HInt = H.Make (I.Ints)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let log2i n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

(* ------- the pool itself ------- *)

let with_pool2 f =
  let p = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_parallel_for_covers_range () =
  with_pool2 (fun p ->
      List.iter
        (fun n ->
          let hits = Array.make (max 1 n) 0 in
          Pool.parallel_for p ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
          for i = 0 to n - 1 do
            checki (Printf.sprintf "index %d of %d hit once" i n) 1 hits.(i)
          done)
        [ 0; 1; 2; 3; 7; 100 ])

let test_parallel_for_jobs1_inline () =
  let p = Pool.create ~jobs:1 in
  let sum = ref 0 in
  (* jobs=1 runs inline on the calling domain: unsynchronized mutation of
     a ref is safe and ordered. *)
  Pool.parallel_for p ~lo:3 ~hi:10 (fun i -> sum := !sum + i);
  Pool.shutdown p;
  checki "inline sum" (3 + 4 + 5 + 6 + 7 + 8 + 9) !sum

let test_parallel_map_preserves_order () =
  with_pool2 (fun p ->
      let xs = Array.init 57 (fun i -> i) in
      let ys = Pool.parallel_map p (fun x -> (2 * x) + 1) xs in
      checkb "map order" true (ys = Array.map (fun x -> (2 * x) + 1) xs))

(* Without a pool the calls follow [order]; with one, every result still
   lands at its element's index, at every batch size the dispatch
   switches on. An order that is not a permutation is rejected. *)
let test_map_in_order () =
  let xs = [| 10; 11; 12; 13 |] and order = [| 2; 0; 3; 1 |] in
  let seen = ref [] in
  let ys = Pool.map_in_order ~order (fun x -> seen := x :: !seen; x * 2) xs in
  Alcotest.(check (list int)) "calls in order" [ 12; 10; 13; 11 ] (List.rev !seen);
  Alcotest.(check (array int)) "results by index" [| 20; 22; 24; 26 |] ys;
  with_pool2 (fun p ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i) in
          (* 7 is coprime to every size, so this is a permutation. *)
          let order = Array.init n (fun j -> (j * 7) mod n) in
          checkb "pooled results by index" true
            (Pool.map_in_order ~pool:p ~order (fun x -> x * x) xs = Array.map (fun x -> x * x) xs))
        [ 0; 1; 3; 57 ]);
  match Pool.map_in_order ~order:[| 0; 0 |] Fun.id [| 1; 2 |] with
  | _ -> Alcotest.fail "a repeated index was accepted"
  | exception Invalid_argument _ -> ()

let test_exception_propagates_and_pool_survives () =
  with_pool2 (fun p ->
      (try
         Pool.parallel_for p ~lo:0 ~hi:8 (fun i -> if i = 5 then failwith "boom");
         Alcotest.fail "expected an exception"
       with Failure m -> checks "exception text" "boom" m);
      (* The failed batch must leave the pool usable. *)
      let hits = Array.make 8 0 in
      Pool.parallel_for p ~lo:0 ~hi:8 (fun i -> hits.(i) <- 1);
      checki "pool usable after failure" 8 (Array.fold_left ( + ) 0 hits))

let test_reentrancy_rejected () =
  with_pool2 (fun p ->
      let raised = Atomic.make false in
      Pool.parallel_for p ~lo:0 ~hi:2 (fun _ ->
          match Pool.parallel_for p ~lo:0 ~hi:2 (fun _ -> ()) with
          | () -> ()
          | exception Invalid_argument _ -> Atomic.set raised true);
      checkb "nested parallel_for rejected" true (Atomic.get raised))

let test_shutdown_idempotent_and_final () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool.parallel_for: pool is shut down") (fun () ->
      Pool.parallel_for p ~lo:0 ~hi:4 (fun _ -> ()))

(* ------- the dynamic cost-weighted dispatcher ------- *)

let test_parallel_for_tasks_covers_tasks () =
  with_pool2 (fun p ->
      List.iter
        (fun n ->
          (* Skewed weights: the schedule order changes, the set of tasks
             run must not. *)
          let weights = Array.init n (fun i -> (i * 37) mod 11) in
          let hits = Array.make (max 1 n) 0 in
          Pool.parallel_for_tasks p ~weights (fun i -> hits.(i) <- hits.(i) + 1);
          for i = 0 to n - 1 do
            checki (Printf.sprintf "task %d of %d run once" i n) 1 hits.(i)
          done)
        [ 0; 1; 2; 3; 7; 64 ])

(* The contract the hierarchy's pooled batch writes rely on: level tasks
   charge per-host memory straight through [Network.charge_memory]'s
   atomics, interleaving charges with releases of units the same task
   charged earlier, and per-host memory ends equal to the sequential sums
   for any jobs count. Few hosts and many levels, so tasks collide on
   every counter. *)
let test_parallel_level_charges () =
  let hosts = 4 and levels = 16 in
  let charges =
    Array.init levels (fun level ->
        let g = Prng.create (level + 1) in
        let placed = Array.init (200 * (level + 1)) (fun _ -> Prng.int g hosts) in
        (* Charge every copy; release every other one right after the next
           charge, as a range delta adds before it removes. *)
        List.concat
          (List.init (Array.length placed) (fun j ->
               if j mod 2 = 1 then [ (placed.(j), 1); (placed.(j - 1), -1) ]
               else [ (placed.(j), 1) ])))
  in
  let expected = Array.make hosts 0 in
  Array.iter (List.iter (fun (h, k) -> expected.(h) <- expected.(h) + k)) charges;
  List.iter
    (fun jobs ->
      let net = Network.create ~hosts in
      let p = Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () ->
          Pool.parallel_for_tasks p ~weights:(Array.map List.length charges) (fun level ->
              List.iter (fun (h, k) -> Network.charge_memory net h k) charges.(level)));
      for h = 0 to hosts - 1 do
        checki (Printf.sprintf "jobs %d host %d memory" jobs h) expected.(h) (Network.memory net h)
      done)
    [ 1; 2 ]

let test_parallel_for_tasks_jobs1_inline_ordered () =
  let p = Pool.create ~jobs:1 in
  let order = ref [] in
  (* jobs=1 runs inline in index order; the weights only ever reorder the
     schedule across domains, never what runs. *)
  Pool.parallel_for_tasks p ~weights:[| 1; 9; 3 |] (fun i -> order := i :: !order);
  Pool.shutdown p;
  checkb "jobs=1 runs tasks inline in index order" true (!order = [ 2; 1; 0 ])

let test_parallel_for_tasks_exception_and_reuse () =
  with_pool2 (fun p ->
      (try
         Pool.parallel_for_tasks p ~weights:(Array.make 8 1) (fun i ->
             if i = 3 then failwith "task-boom");
         Alcotest.fail "expected an exception"
       with Failure m -> checks "exception text" "task-boom" m);
      (* The failed batch must leave the pool usable, as for parallel_for. *)
      let hits = Array.make 8 0 in
      Pool.parallel_for_tasks p ~weights:(Array.make 8 1) (fun i -> hits.(i) <- 1);
      checki "pool usable after failed task batch" 8 (Array.fold_left ( + ) 0 hits))

let test_parallel_for_tasks_after_shutdown () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool.parallel_for_tasks: pool is shut down") (fun () ->
      Pool.parallel_for_tasks p ~weights:[| 1; 1 |] (fun _ -> ()))

let test_parallel_map_small_batch_dynamic () =
  (* n < 2*jobs takes parallel_map's dynamic-dispatch fallback (static
     chunking would leave domains idle); the result must still be the
     index-ordered map. *)
  let p = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i) in
          let ys = Pool.parallel_map p (fun x -> x * x) xs in
          checkb (Printf.sprintf "small map n=%d order" n) true (ys = Array.map (fun x -> x * x) xs))
        [ 2; 3; 5; 7 ])

let test_with_pool_convention () =
  checkb "jobs<=1 gives None" true (Pool.with_pool ~jobs:1 (fun pool -> pool = None));
  checkb "jobs>1 gives a pool" true
    (Pool.with_pool ~jobs:3 (fun pool ->
         match pool with Some p -> Pool.jobs p = 3 | None -> false))

(* ------- per-index PRNG streams ------- *)

let test_stream_deterministic_and_non_advancing () =
  let g = Prng.create 42 in
  let before = Prng.int (Prng.copy g) 1_000_000 in
  let a = Prng.int (Prng.stream g 7) 1_000_000 in
  let b = Prng.int (Prng.stream g 7) 1_000_000 in
  checki "same index, same stream" a b;
  let after = Prng.int (Prng.copy g) 1_000_000 in
  checki "deriving streams never advances the base" before after;
  (* Distinct indices give distinct streams (with overwhelming
     probability; pinned here for these seeds). *)
  let c = Prng.int (Prng.stream g 8) 1_000_000 in
  checkb "distinct indices differ" true (a <> c);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.stream: index must be non-negative") (fun () ->
      ignore (Prng.stream g (-1)))

(* ------- parallel == sequential, the load-bearing property ------- *)

(* Build the same blocked 1-d skip-web on a fresh network, run the same
   query set, and return everything observable: answers, per-query
   costs, and the network's committed totals. *)
let b1_observation ~jobs ~seed ~n ~queries =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  let g = B1.build ~net ~seed ~m:(4 * log2i n) keys in
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
  let rs =
    Pool.with_pool ~jobs (fun pool -> B1.query_batch ?pool g ~rng qs)
  in
  let answers = Array.map (fun (r : B1.search_result) -> r.B1.nearest) rs in
  let costs = Array.map (fun (r : B1.search_result) -> r.B1.messages) rs in
  let traffic = Array.init n (Network.traffic net) in
  (answers, costs, Network.total_messages net, Network.sessions_started net, traffic)

let hint_observation ~jobs ~seed ~n ~queries =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  let h = HInt.build ~net ~seed keys in
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
  let rs = Pool.with_pool ~jobs (fun pool -> HInt.query_batch ?pool h ~rng qs) in
  let answers = Array.map fst rs in
  let costs = Array.map (fun (_, stats) -> stats.HInt.messages) rs in
  let traffic = Array.init n (Network.traffic net) in
  (answers, costs, Network.total_messages net, Network.sessions_started net, traffic)

(* The sequential loop itself (not query_batch with jobs=1), so the suite
   would catch query_batch drifting from query. *)
let b1_sequential ~seed ~n ~queries =
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let net = Network.create ~hosts:n in
  let g = B1.build ~net ~seed ~m:(4 * log2i n) keys in
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
  let rs = Array.map (fun q -> B1.query g ~rng q) qs in
  let answers = Array.map (fun (r : B1.search_result) -> r.B1.nearest) rs in
  let costs = Array.map (fun (r : B1.search_result) -> r.B1.messages) rs in
  let traffic = Array.init n (Network.traffic net) in
  (answers, costs, Network.total_messages net, Network.sessions_started net, traffic)

let qcheck_b1_parallel_equals_sequential =
  QCheck.Test.make ~name:"blocked 1-d: batch == sequential loop for jobs in {1,2,4}"
    ~count:8
    QCheck.(pair (int_range 0 1000) (int_range 60 300))
    (fun (seed, n) ->
      (* 0, 1 and 3 queries are shorter than 2 * jobs, so the pool takes
         its dynamic dispatch path. *)
      List.for_all
        (fun queries ->
          let base = b1_sequential ~seed ~n ~queries in
          List.for_all (fun jobs -> b1_observation ~jobs ~seed ~n ~queries = base) [ 1; 2; 4 ])
        [ 0; 1; 3; 50 ])

let qcheck_hint_parallel_equals_sequential =
  QCheck.Test.make ~name:"generic 1-d: batch == batch for jobs in {1,2,4}" ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 60 300))
    (fun (seed, n) ->
      let queries = 40 in
      let base = hint_observation ~jobs:1 ~seed ~n ~queries in
      List.for_all (fun jobs -> hint_observation ~jobs ~seed ~n ~queries = base) [ 2; 4 ])

(* The generic hierarchy's sequential loop, pinned against its own batch
   on one structure (cheaper than a qcheck family; the drift this catches
   is query_batch consuming rng draws differently from query). Batches of
   0, 1 and 3 queries at jobs 2 reach parallel_map's inline and dynamic
   paths. *)
let test_hint_batch_matches_sequential_loop () =
  let seed = 11 and n = 200 in
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  List.iter
    (fun queries ->
      let net = Network.create ~hosts:n in
      let h = HInt.build ~net ~seed keys in
      let rng = Prng.create (seed + 1) in
      let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
      let rs = Array.map (fun q -> HInt.query h ~rng q) qs in
      let seq_answers = Array.map fst rs in
      let seq_total = Network.total_messages net in
      List.iter
        (fun jobs ->
          let answers, _, total, _, _ = hint_observation ~jobs ~seed ~n ~queries in
          checkb "answers equal" true (answers = seq_answers);
          checki "network totals equal" seq_total total)
        [ 1; 2 ])
    [ 0; 1; 3; 40 ]

(* The multi-d instances have no native batch engine: a hierarchy batch
   is one task per level on a pool, and each level structure runs the
   per-key loop. A batch must leave the state the same keys arriving one
   at a time leave — level count, storage, total memory and answers — and
   the per-host memory vector must not depend on the jobs count. (A level
   set the batch creates from nothing takes one bulk [S.build], whose node
   ids, hence placements, differ from a build-then-insert history; so the
   vector itself is compared across jobs counts, not against the loop.) *)
module Batch_matches_loop (S : Skipweb_core.Range_structure.S) = struct
  module HS = H.Make (S)

  let observe ~seed ~base ~queries write =
    let hosts = 64 in
    let net = Network.create ~hosts in
    let h = HS.build ~net ~seed base in
    write h;
    HS.check_invariants h;
    let rng = Prng.create (seed + 1) in
    ( Array.init hosts (Network.memory net),
      HS.levels h,
      HS.total_storage h,
      Array.map (fun q -> fst (HS.query h ~rng q)) queries )

  let check ~name ~seed ~base ~extra ~gone ~queries =
    let batch jobs =
      Pool.with_pool ~jobs (fun pool ->
          observe ~seed ~base ~queries (fun h ->
              ignore (HS.insert_batch ?pool h extra : int);
              ignore (HS.remove_batch ?pool h gone : int)))
    in
    let mem1, levels, storage, answers = batch 1 in
    let mem', levels', storage', answers' =
      observe ~seed ~base ~queries (fun h ->
          Array.iter (fun k -> ignore (HS.insert h k : int)) extra;
          Array.iter (fun k -> ignore (HS.remove h k : int)) gone)
    in
    let sum = Array.fold_left ( + ) 0 in
    checki (name ^ ": levels = per-key loop") levels' levels;
    checki (name ^ ": storage = per-key loop") storage' storage;
    checki (name ^ ": total memory = per-key loop") (sum mem') (sum mem1);
    checkb (name ^ ": answers = per-key loop") true (answers = answers');
    checkb (name ^ ": jobs 2 = jobs 1") true (batch 2 = (mem1, levels, storage, answers))
end

module P2_batch = Batch_matches_loop (I.Points2d)
module Str_batch = Batch_matches_loop (I.Strings)

(* 450 + 120 keys cross 512, so the batch also grows the hierarchy by a
   level, and removing 60 shrinks it back. *)
let test_multid_batch_matches_loop () =
  let extra = W.uniform_points ~seed:32 ~n:120 ~dim:2 in
  P2_batch.check ~name:"points2d" ~seed:31
    ~base:(W.uniform_points ~seed:30 ~n:450 ~dim:2)
    ~extra ~gone:(Array.sub extra 0 60)
    ~queries:(W.uniform_query_points ~seed:33 ~n:40 ~dim:2);
  let base = W.random_strings ~seed:34 ~n:450 ~alphabet:3 ~len:8 in
  let extra = W.random_strings ~seed:35 ~n:120 ~alphabet:3 ~len:9 in
  Str_batch.check ~name:"strings" ~seed:36 ~base ~extra ~gone:(Array.sub extra 0 60)
    ~queries:(W.string_queries ~seed:37 ~keys:base ~n:40)

(* ------- parallel write path == sequential ------- *)

(* Distinct churn keys above the stored domain, so inserts always add and
   the later removes always hit. *)
let churn_keys ~seed ~count ~bound =
  let rng = Prng.create (seed + 0x9e1) in
  let taken = Hashtbl.create count in
  let out = Array.make count 0 in
  let filled = ref 0 in
  while !filled < count do
    let k = bound + Prng.int rng bound in
    if not (Hashtbl.mem taken k) then begin
      Hashtbl.replace taken k ();
      out.(!filled) <- k;
      incr filled
    end
  done;
  out

(* Bulk-build the generic hierarchy, churn it with a batch insert and a
   batch remove, and return everything observable: batch result counts,
   query answers afterwards, per-host memory and traffic, the network
   totals, and the structural summary. jobs=1 gives [with_pool] None, so
   the baseline is the genuinely sequential direct-charge path. *)
let hint_write_observation ~jobs ~seed ~n =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts:(2 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let h = HInt.build ~net ~seed ?pool keys in
  let churn = churn_keys ~seed ~count:(max 10 (n / 4)) ~bound in
  let inserted = HInt.insert_batch ?pool h churn in
  let removed = HInt.remove_batch ?pool h churn in
  HInt.check_invariants h;
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:30 ~bound in
  let answers = Array.map (fun q -> fst (HInt.query h ~rng q)) qs in
  let hosts = Network.host_count net in
  let mem = Array.init hosts (Network.memory net) in
  let traffic = Array.init hosts (Network.traffic net) in
  ( inserted,
    removed,
    answers,
    mem,
    traffic,
    Network.total_messages net,
    Network.sessions_started net,
    (HInt.size h, HInt.levels h, HInt.total_storage h) )

(* Same shape for the blocked structure: the churn is big enough to force
   epoch rebuilds, which run on the pool the structure was built with. *)
let b1_write_observation ~jobs ~seed ~n =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts:(2 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let g = B1.build ~net ~seed ~m:(4 * log2i n) ?pool keys in
  let churn = churn_keys ~seed ~count:(max 8 (n / 2)) ~bound in
  let ins = Array.map (fun k -> B1.insert g k) churn in
  let del = Array.map (fun k -> B1.delete g k) churn in
  B1.check_invariants g;
  let rng = Prng.create (seed + 1) in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:30 ~bound in
  let answers = Array.map (fun q -> (B1.query g ~rng q).B1.nearest) qs in
  let hosts = Network.host_count net in
  let mem = Array.init hosts (Network.memory net) in
  let traffic = Array.init hosts (Network.traffic net) in
  (ins, del, answers, mem, traffic, Network.total_messages net, Network.sessions_started net)

let qcheck_hint_write_parallel_equals_sequential =
  QCheck.Test.make
    ~name:"generic 1-d: build/insert_batch/remove_batch == sequential for jobs in {1,2,4}"
    ~count:5
    QCheck.(pair (int_range 0 1000) (int_range 60 240))
    (fun (seed, n) ->
      let base = hint_write_observation ~jobs:1 ~seed ~n in
      List.for_all (fun jobs -> hint_write_observation ~jobs ~seed ~n = base) [ 2; 4 ])

let qcheck_b1_write_parallel_equals_sequential =
  QCheck.Test.make
    ~name:"blocked 1-d: pooled build + rebuild churn == sequential for jobs in {1,2,4}"
    ~count:4
    QCheck.(pair (int_range 0 1000) (int_range 60 200))
    (fun (seed, n) ->
      let base = b1_write_observation ~jobs:1 ~seed ~n in
      List.for_all (fun jobs -> b1_write_observation ~jobs ~seed ~n = base) [ 2; 4 ])

(* ------- utilization counters ------- *)

let test_pool_utilization_counters () =
  let p = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Pool.reset_utilization p;
      Pool.parallel_for_tasks p ~weights:(Array.make 16 1) (fun _ -> ());
      let u = Pool.utilization p in
      checki "one slot per domain" 2 (Array.length u.Pool.tasks);
      checki "every task counted once" 16 (Array.fold_left ( + ) 0 u.Pool.tasks);
      checkb "busy time non-negative" true (Array.for_all (fun b -> b >= 0.0) u.Pool.busy_s);
      let reg = Metrics.create () in
      Pool.record_metrics p reg;
      checki "pool.jobs exported" 2 (Metrics.counter_value reg "pool.jobs");
      checki "per-slot tasks exported" 16
        (Metrics.counter_value reg "pool.slot00.tasks"
        + Metrics.counter_value reg "pool.slot01.tasks");
      Pool.reset_utilization p;
      let u2 = Pool.utilization p in
      checki "reset clears tasks" 0 (Array.fold_left ( + ) 0 u2.Pool.tasks))

let test_clamp_jobs () =
  let cap = Domain.recommended_domain_count () in
  checki "under cap passes" 1 (Pool.clamp_jobs ~warn:false 1);
  checki "at cap passes" cap (Pool.clamp_jobs ~warn:false cap);
  checki "over cap clamps" cap (Pool.clamp_jobs ~warn:false (cap + 7))

let suite =
  [
    Alcotest.test_case "parallel_for covers ranges" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_parallel_for_jobs1_inline;
    Alcotest.test_case "parallel_map preserves order" `Quick test_parallel_map_preserves_order;
    Alcotest.test_case "map_in_order runs in order, returns by index" `Quick test_map_in_order;
    Alcotest.test_case "exceptions propagate; pool survives" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "re-entrant batches rejected" `Quick test_reentrancy_rejected;
    Alcotest.test_case "shutdown idempotent and final" `Quick test_shutdown_idempotent_and_final;
    Alcotest.test_case "parallel_for_tasks covers every task" `Quick
      test_parallel_for_tasks_covers_tasks;
    Alcotest.test_case "parallel level charges = sequential sums" `Quick test_parallel_level_charges;
    Alcotest.test_case "parallel_for_tasks jobs=1 inline in index order" `Quick
      test_parallel_for_tasks_jobs1_inline_ordered;
    Alcotest.test_case "parallel_for_tasks exceptions propagate; pool survives" `Quick
      test_parallel_for_tasks_exception_and_reuse;
    Alcotest.test_case "parallel_for_tasks rejected after shutdown" `Quick
      test_parallel_for_tasks_after_shutdown;
    Alcotest.test_case "parallel_map small batches use dynamic dispatch" `Quick
      test_parallel_map_small_batch_dynamic;
    Alcotest.test_case "with_pool convention" `Quick test_with_pool_convention;
    Alcotest.test_case "Prng.stream deterministic, non-advancing" `Quick
      test_stream_deterministic_and_non_advancing;
    Alcotest.test_case "generic batch matches sequential loop" `Quick (fun () ->
        test_hint_batch_matches_sequential_loop ();
        test_multid_batch_matches_loop ());
    QCheck_alcotest.to_alcotest qcheck_b1_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest qcheck_hint_parallel_equals_sequential;
    Alcotest.test_case "pool utilization counters" `Quick test_pool_utilization_counters;
    Alcotest.test_case "clamp_jobs caps at the recommended count" `Quick test_clamp_jobs;
    QCheck_alcotest.to_alcotest qcheck_hint_write_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest qcheck_b1_write_parallel_equals_sequential;
  ]
