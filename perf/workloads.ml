(* The four benchmark workloads. Each builds its structure from inputs
   drawn from the seed, runs rounds of operations until the time is up,
   checks every answer it can against a model, and reports the
   end-to-end metrics and, in a traced run, the per-layer ones.

   Every workload is a closed loop with one client: the benchmark calls the
   library back to back and times each call. Rounds are fixed by the seed
   and the round index, so the first round is the same work on every run
   and the count metrics (messages per query, memory per key, busiest
   host) taken from it repeat exactly for a seed. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module H = Skipweb_core.Hierarchy
module B1 = Skipweb_core.Blocked1d
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module OL = Skipweb_workload.Open_loop
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool
module Ordseq = Skipweb_util.Ordseq
module Presort = Skipweb_util.Presort
module Point = Skipweb_geom.Point
module Cqtree = Skipweb_quadtree.Cqtree
module IS = Set.Make (Int)

type cfg = { seed : int; seconds : float; traced : bool; smoke : bool }

let now = Meter.now
let sprintf = Printf.sprintf

(* Set-up runs three times in an untraced run and setup_s is the median;
   a traced run builds once. A traced run needs two rounds: one traced,
   one not, for the tracing overhead. *)
let setups cfg = if cfg.traced then 1 else 3
let min_rounds cfg = if cfg.traced then 2 else 1

(* At most this many first-round queries feed the layer replays. *)
let replay_sample = 2000

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Build [setups cfg] times from the same inputs and keep the last, with
   a full major collection before each build and after the last, so every
   build and the timed phase start from the same heap. Returns the last
   build and the median build time at the reference speed. *)
let setup cfg m ph ~items build =
  let last = ref None and scaled = ref [] in
  m.Meter.tracing <- cfg.traced;
  for i = 0 to setups cfg - 1 do
    last := None;
    Gc.full_major ();
    let speed = Meter.speed () in
    let x, seconds = timed (fun () -> Meter.call m ph ~items ~op:i build) in
    last := Some x;
    scaled := (seconds *. speed) :: !scaled
  done;
  m.Meter.tracing <- false;
  Gc.full_major ();
  (Option.get !last, Meter.median !scaled)

let with_pool jobs f =
  let jobs = Pool.clamp_jobs jobs in
  if jobs <= 1 then f None
  else begin
    let p = Pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f (Some p))
  end

let nearest set q =
  match (IS.find_last_opt (fun x -> x <= q) set, IS.find_first_opt (fun x -> x >= q) set) with
  | None, s -> s
  | p, None -> p
  | Some p, Some s -> if q - p <= s - q then Some p else Some s

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The first round's queries: their messages and visited ranges, and the
   first [replay_sample] of them for the layer replays. *)
type 'q first = {
  mutable msgs : int;
  mutable visited : int;
  mutable queries : int;
  mutable sample : 'q list;  (* newest first *)
}

let first_round () = { msgs = 0; visited = 0; queries = 0; sample = [] }

let note f ~msgs ~visited q =
  f.msgs <- f.msgs + msgs;
  f.visited <- f.visited + visited;
  if f.queries < replay_sample then f.sample <- q :: f.sample;
  f.queries <- f.queries + 1

let per_query f x = float_of_int x /. float_of_int (max 1 f.queries)
let sample f = Array.of_list (List.rev f.sample)

(* Re-run the sampled queries, each with a trace; tracing never changes
   a query's cost. *)
let traced_queries ~seed sample query =
  let coins = Prng.create (seed + 0x7ace) in
  Array.to_list
    (Array.mapi
       (fun i q ->
         let trace = Trace.create () in
         query ~trace ~rng:(Prng.stream coins i) q;
         trace)
       sample)

(* Run a structure's own invariant check; its time is printed as
   check_s, outside every measured window. *)
let invariants r name f =
  let t0 = now () in
  (match f () with () -> () | exception Failure msg -> Report.check r false "%s: %s" name msg);
  Report.extra r "check_s" (now () -. t0) "s"

(* ------------------------------------------------------------------ *)
(* Metrics every workload reports. *)

(* The busiest host and the heap peak once the first round is done: both
   describe a fixed amount of work, however many rounds the time allows. *)
let after_first_round net = (Network.max_traffic net, heap_peak_mb ())

let is_op ph = List.mem ph.Meter.label [ "query"; "scan"; "insert"; "remove" ]

(* [mem_units_per_key] is taken after set-up; [after0] is
   [after_first_round] of the first round. *)
let end_to_end r m ~setup_s ~query ~first ~mem_units_per_key ~after0 =
  let loop = List.filter (fun ph -> ph.Meter.label <> "build") m.Meter.phases in
  let items = List.fold_left (fun acc ph -> if is_op ph then acc + ph.Meter.items else acc) 0 loop in
  let time = List.fold_left (fun acc ph -> acc +. ph.Meter.time) 0.0 loop in
  (* Timings are at the reference speed (see [Meter.speed]) and medians
     over rounds, so a stretch in which the machine runs slow moves them
     only if it covers most rounds and the kernel does not see it. *)
  Report.e2e r "setup_s" setup_s "s";
  Report.e2e r "query_p50_us" (Meter.median (Meter.round_medians m query) *. 1e6) "us";
  Report.e2e r "ops_per_s" (Meter.median (Meter.round_rates m ~ops:is_op)) "ops/s";
  Report.e2e r "heap_peak_mb" (snd after0) "MB";
  Report.e2e r "msgs_per_query" (per_query first first.msgs) "msgs";
  Report.e2e r "mem_units_per_key" mem_units_per_key "units";
  Report.layer r "network.max_host_traffic" (float_of_int (fst after0));
  Report.layer r "hierarchy.ranges_visited_per_query" (per_query first first.visited);
  Report.extra r "ops_per_s_overall" (float_of_int items /. time) "ops/s";
  Report.extra r "speed" (Meter.median (Array.to_list (Meter.Vec.to_array m.Meter.speeds))) "x";
  List.iter
    (fun ph ->
      let l = ph.Meter.label in
      Report.extra r (l ^ "_p50_us") (Meter.quantile ph 0.5 *. 1e6) "us";
      Report.extra r (l ^ "_p99_us") (Meter.quantile ph 0.99 *. 1e6) "us";
      Report.extra r (l ^ "_samples") (float_of_int ph.Meter.calls) "count";
      if is_op ph then
        Report.extra r (l ^ "_items_per_s") (float_of_int ph.Meter.items /. ph.Meter.time) "items/s")
    loop

(* The network's workload counters over the rounds. *)
let network_counters r net =
  Report.layer r "network.sessions" (float_of_int (Network.sessions_started net));
  Report.layer r "network.total_messages" (float_of_int (Network.total_messages net))

(* Gc counters per phase, pool utilization for the phases that hand the
   pool to the library, the jobs-1 speedups, and the tracing overhead. *)
let phase_layers r m ~pooled ~speedups =
  let jobs = float_of_int (Meter.jobs m) in
  List.iter
    (fun ph ->
      let l = ph.Meter.label in
      Report.layer r (sprintf "gc.%s.minor_words_per_op" l)
        (ph.Meter.minor_words /. float_of_int (max 1 ph.Meter.titems));
      Report.layer r (sprintf "gc.%s.promoted_words" l) ph.Meter.promoted_words;
      Report.layer r (sprintf "gc.%s.major_collections" l) (float_of_int ph.Meter.major_collections);
      if List.mem l pooled then begin
        let capacity = jobs *. ph.Meter.ttime in
        Report.layer r (sprintf "pool.%s.busy_frac" l)
          (if capacity > 0.0 then ph.Meter.busy_s /. capacity else 0.0);
        Report.layer r (sprintf "pool.%s.tasks" l) (float_of_int ph.Meter.tasks);
        Report.layer r (sprintf "pool.%s.idle_s" l) (capacity -. ph.Meter.busy_s)
      end)
    m.Meter.phases;
  List.iter (fun (l, s) -> Report.layer r (sprintf "pool.%s.speedup" l) s) speedups;
  Report.layer r "trace.overhead_frac" (Meter.overhead_frac m)

(* Run a phase once on the pool and once at jobs 1 on the same inputs;
   the results must agree. Returns the jobs-1 time over the pooled one. *)
let rerun r ~name ~same pooled seq =
  let a, t_pool = timed pooled in
  let b, t_seq = timed seq in
  Report.check r (same a b) "%s: the pooled result differs from its jobs-1 re-run" name;
  t_seq /. t_pool

(* The first round's pooled insert and remove of a batch, against the
   same two calls at jobs 1 on a jobs-1 build in the same state (same
   keys, same element ids). Counts and charged memory must agree. *)
type write = { count : int; memory : int; seconds : float }

let write_speedups r ~pooled:(ins, rem) ~memory ~insert ~remove =
  let step f =
    let count, seconds = timed f in
    { count; memory = memory (); seconds }
  in
  let ins1 = step insert in
  let rem1 = step remove in
  let same a b = a.count = b.count && a.memory = b.memory in
  Report.check r
    (same ins ins1 && same rem rem1)
    "insert/remove: the pooled batches differ from their jobs-1 re-runs";
  [ ("insert", ins1.seconds /. ins.seconds); ("remove", rem1.seconds /. rem.seconds) ]

(* ------------------------------------------------------------------ *)
(* Hierarchy workloads share their set-up facts and layer replays. *)

type built = { levels : int; storage : int; memory : int; size : int }

module Hier (S : Skipweb_core.Range_structure.S) = struct
  module HS = H.Make (S)
  module LV = Layers.Levels (S)

  let built net h =
    {
      levels = HS.levels h;
      storage = HS.total_storage h;
      memory = Network.total_memory net;
      size = HS.size h;
    }

  (* The layers under a hierarchy: the range structure (level sets
     rebuilt and a query's descent replayed), membership prefixes,
     placement hashes, memory charges and network sessions. Self times
     subtract the replayed layers from the benchmark's spans. Call after
     the network's workload counters are read. *)
  let layers r ~seed ~net ~h ~keys ~(b : built) ~first ~k ~build ~query =
    let n = Array.length keys in
    let sample = sample first in
    let hosts = Network.host_count net in
    let lv, instances_build_s = LV.build ~seed ~levels:b.levels keys in
    let orng = Prng.create (seed + 0x0219) in
    let origins = Array.map (fun _ -> Prng.int orng n) sample in
    let locate_ns, refine_ns = LV.descent_ns lv sample origins in
    let prefix_ns = Layers.membership_prefix_ns ~seed ~ids:n ~levels:b.levels in
    let calls = n * b.levels in
    (* One placement draw and one memory charge per charged copy. *)
    let draws = b.memory in
    let hash_ns = Layers.hash_ns ~seed ~draws in
    let charge_ns = Layers.charge_ns ~hosts ~draws in
    let hop_ns =
      Layers.session_ns_per_hop ~hosts
        (traced_queries ~seed sample (fun ~trace ~rng q -> ignore (HS.query ~trace h ~rng q)))
    in
    let _, presort_s = timed (fun () -> Presort.sorted_distinct ~cmp:compare keys) in
    let build_s = Meter.mean_span build in
    Report.layer r "hierarchy.build_s" build_s;
    Report.layer r "hierarchy.build_self_s"
      (build_s -. instances_build_s
      -. ((prefix_ns *. float_of_int calls) +. ((hash_ns +. charge_ns) *. float_of_int draws)) *. 1e-9);
    if query.Meter.fn = "Hierarchy.query" then begin
      let query_us = Meter.mean_span query *. 1e6 in
      Report.layer r "hierarchy.query_us" query_us;
      Report.layer r "hierarchy.query_self_us"
        (query_us
        -. (locate_ns
           +. (float_of_int (b.levels - 1) *. refine_ns)
           +. (per_query first first.msgs *. hop_ns))
           *. 1e-3)
    end;
    Report.layer r "hierarchy.levels" (float_of_int b.levels);
    Report.layer r "hierarchy.total_storage" (float_of_int b.storage);
    Report.layer r "instances.build_s" instances_build_s;
    Report.layer r "instances.locate_ns" locate_ns;
    Report.layer r "instances.refine_ns" refine_ns;
    Report.layer r "presort.sorted_distinct_s" presort_s;
    Report.layer r "membership.prefix_ns" prefix_ns;
    Report.layer r "membership.calls_per_build" (float_of_int calls);
    Report.layer r "placement.hash_ns" hash_ns;
    Report.layer r "placement.draws_per_build" (float_of_int draws);
    Report.layer r "placement.replica_slot_ns"
      (Layers.replica_slot_ns ~seed ~origins ~levels:b.levels ~k);
    Report.layer r "network.session_ns_per_hop" hop_ns;
    Report.layer r "network.charge_ns" charge_ns

  (* Rebuild at jobs 1 and compare with the pooled build. Returns the
     jobs-1 build and the speedup of the pooled one. *)
  let build_speedup r ~build ~b rebuild =
    let (net, h), t_seq = timed rebuild in
    Report.check r (built net h = b) "build: the pooled build differs from its jobs-1 re-run";
    (net, h, t_seq /. Meter.mean_span build)
end

module HInt = Hier (I.Ints)
module HPt = Hier (I.Points2d)

(* Ordseq under the 1-d workloads: a rank search per query key and one
   batch splice of the first round's fresh keys, pooled and at jobs 1 when
   the workload has a pool. *)
let ordseq_layers r ~pool ~keys ~queries ~fresh =
  let seq = Ordseq.of_array keys in
  let acc = ref 0 in
  let reps = 10 in
  let t0 = now () in
  for _ = 1 to reps do
    Array.iter (fun q -> acc := !acc + Ordseq.lower_bound seq q) queries
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  Report.layer r "ordseq.lower_bound_ns"
    (dt *. 1e9 /. float_of_int (max 1 (reps * Array.length queries)));
  if Array.length fresh > 0 then begin
    let batch = Presort.sorted_distinct ~cmp:compare fresh in
    let splice ?pool () =
      let s = Ordseq.of_array keys in
      let t0 = now () in
      ignore (Ordseq.insert_batch ?pool s batch : int);
      (Ordseq.chunk_lengths s, now () -. t0)
    in
    let layout, t_pool = splice ?pool () in
    Report.layer r "ordseq.insert_batch_s" t_pool;
    if Option.is_some pool then begin
      let layout1, t_seq = splice () in
      Report.check r (layout = layout1) "ordseq: the pooled splice differs from its jobs-1 re-run";
      Report.layer r "ordseq.pool_speedup" (t_seq /. t_pool)
    end
  end

(* ------------------------------------------------------------------ *)
(* serve-1d: the single-op read/write path of the 1-d hierarchy. *)

let serve_1d cfg r =
  let n = if cfg.smoke then 2_000 else 50_000 in
  let round_ops = if cfg.smoke then 2_000 else 5_000 in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed:cfg.seed ~n ~bound in
  let m = Meter.create () in
  let build = Meter.phase m "build" "Hierarchy.build" in
  let query = Meter.phase m "query" "Hierarchy.query" in
  let insert = Meter.phase m "insert" "Hierarchy.insert" in
  let remove = Meter.phase m "remove" "Hierarchy.remove" in
  let (net, h), setup_s =
    setup cfg m build ~items:n (fun () ->
        let net = Network.create ~hosts:n in
        (net, HInt.HS.build ~net ~seed:cfg.seed keys))
  in
  let b = HInt.built net h in
  Network.reset_traffic net;
  let live = ref (IS.of_seq (Array.to_seq keys)) in
  let coins = Prng.create (cfg.seed + 0x5e1) in
  let op = ref 0 and wrong = ref 0 in
  let first = first_round () and after0 = ref (0, 0.0) and fresh0 = ref [] in
  r.Report.rounds <-
    Meter.rounds m ~traced:cfg.traced ~seconds:cfg.seconds ~min_rounds:(min_rounds cfg) (fun round ->
        let spec =
          {
            OL.seed = Prng.hash2 cfg.seed round;
            ops = round_ops;
            rate = 1000.0;
            read_fraction = 0.9;
            zipf_share = 0.5;
            zipf_s = 1.1;
            bound;
          }
        in
        let events = OL.plan spec ~keys:(Array.of_list (IS.elements !live)) in
        Array.iter
          (fun e ->
            let i = !op in
            incr op;
            match e.OL.op with
            | OL.Query q ->
                let answer, st =
                  Meter.call m query ~op:i (fun () -> HInt.HS.query h ~rng:(Prng.stream coins i) q)
                in
                if answer <> nearest !live q then incr wrong;
                if round = 0 then
                  note first ~msgs:st.HInt.HS.messages ~visited:st.HInt.HS.ranges_visited q
            | OL.Insert k ->
                ignore (Meter.call m insert ~op:i (fun () -> HInt.HS.insert h k) : int);
                live := IS.add k !live;
                if round = 0 then fresh0 := k :: !fresh0
            | OL.Remove k ->
                ignore (Meter.call m remove ~op:i (fun () -> HInt.HS.remove h k) : int);
                live := IS.remove k !live)
          events;
        if round = 0 then after0 := after_first_round net);
  r.Report.attempted <- !op;
  Report.check r (!wrong = 0) "serve-1d: %d nearest answers differ from the model" !wrong;
  Report.check r (HInt.HS.size h = IS.cardinal !live) "serve-1d: size %d, model %d" (HInt.HS.size h)
    (IS.cardinal !live);
  invariants r "serve-1d" (fun () -> HInt.HS.check_invariants h);
  end_to_end r m ~setup_s ~query ~first ~after0:!after0
    ~mem_units_per_key:(float_of_int b.memory /. float_of_int b.size);
  if cfg.traced then begin
    network_counters r net;
    Report.layer r "hierarchy.insert_us" (Meter.mean_span insert *. 1e6);
    Report.layer r "hierarchy.remove_us" (Meter.mean_span remove *. 1e6);
    HInt.layers r ~seed:cfg.seed ~net ~h ~keys ~b ~first ~k:1 ~build ~query;
    ordseq_layers r ~pool:None ~keys ~queries:(sample first) ~fresh:(Array.of_list !fresh0);
    phase_layers r m ~pooled:[] ~speedups:[]
  end;
  m

(* ------------------------------------------------------------------ *)
(* serve-blocked: Blocked1d routing, read-only. *)

let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

let serve_blocked cfg r =
  let n = if cfg.smoke then 2_000 else 20_000 in
  let round_queries = if cfg.smoke then 200 else 1_000 in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed:cfg.seed ~n ~bound in
  let model = IS.of_seq (Array.to_seq keys) in
  let m = Meter.create () in
  let build = Meter.phase m "build" "Blocked1d.build" in
  let query = Meter.phase m "query" "Blocked1d.query" in
  let (net, bl), setup_s =
    setup cfg m build ~items:n (fun () ->
        let net = Network.create ~hosts:n in
        (net, B1.build ~net ~seed:cfg.seed ~m:(4 * log2_ceil n) keys))
  in
  let memory = Network.total_memory net in
  Network.reset_traffic net;
  let coins = Prng.create (cfg.seed + 0x5e2) in
  let op = ref 0 and wrong = ref 0 in
  let first = first_round () and after0 = ref (0, 0.0) in
  r.Report.rounds <-
    Meter.rounds m ~traced:cfg.traced ~seconds:cfg.seconds ~min_rounds:(min_rounds cfg) (fun round ->
        let spec =
          {
            OL.seed = Prng.hash2 cfg.seed round;
            ops = round_queries;
            rate = 1000.0;
            read_fraction = 1.0;
            zipf_share = 0.5;
            zipf_s = 1.1;
            bound;
          }
        in
        Array.iter
          (fun e ->
            match e.OL.op with
            | OL.Query q ->
                let i = !op in
                incr op;
                let res =
                  Meter.call m query ~op:i (fun () -> B1.query bl ~rng:(Prng.stream coins i) q)
                in
                if res.B1.nearest <> nearest model q then incr wrong;
                if round = 0 then note first ~msgs:res.B1.messages ~visited:0 q
            | OL.Insert _ | OL.Remove _ -> assert false (* read_fraction = 1 *))
          (OL.plan spec ~keys);
        if round = 0 then after0 := after_first_round net);
  r.Report.attempted <- !op;
  Report.check r (!wrong = 0) "serve-blocked: %d nearest answers differ from the model" !wrong;
  invariants r "serve-blocked" (fun () -> B1.check_invariants bl);
  end_to_end r m ~setup_s ~query ~first ~after0:!after0
    ~mem_units_per_key:(float_of_int memory /. float_of_int (B1.size bl));
  if cfg.traced then begin
    network_counters r net;
    let traces =
      traced_queries ~seed:cfg.seed (sample first) (fun ~trace ~rng q ->
          ignore (B1.query ~trace bl ~rng q))
    in
    let nq = float_of_int (max 1 (List.length traces)) in
    let hop_ns = Layers.session_ns_per_hop ~hosts:n traces in
    let query_us = Meter.mean_span query *. 1e6 in
    Report.layer r "blocked1d.build_s" (Meter.mean_span build);
    Report.layer r "blocked1d.query_us" query_us;
    Report.layer r "blocked1d.query_self_us"
      (query_us -. (per_query first first.msgs *. hop_ns *. 1e-3));
    Report.layer r "blocked1d.block_hops_per_query"
      (float_of_int (Layers.count_hops traces "block") /. nq);
    Report.layer r "blocked1d.cone_hops_per_query"
      (float_of_int (Layers.count_hops traces "cone") /. nq);
    Report.layer r "blocked1d.covering_entries_per_level" (Layers.mean_replicas_note traces);
    Report.layer r "blocked1d.replicated_storage" (float_of_int (B1.replicated_storage bl));
    let levels = B1.levels bl in
    Report.layer r "membership.prefix_ns"
      (Layers.membership_prefix_ns ~seed:cfg.seed ~ids:n ~levels);
    Report.layer r "membership.calls_per_build" (float_of_int (n * levels));
    Report.layer r "network.session_ns_per_hop" hop_ns;
    Report.layer r "network.charge_ns" (Layers.charge_ns ~hosts:n ~draws:memory);
    ordseq_layers r ~pool:None ~keys ~queries:(sample first) ~fresh:[||];
    phase_layers r m ~pooled:[] ~speedups:[]
  end;
  m

(* ------------------------------------------------------------------ *)
(* bulk-quadtree: the pooled bulk and batch paths of the 2-d hierarchy. *)

let grid_in_box g glo ghi =
  let inside = ref true in
  Array.iteri (fun i c -> if c < glo.(i) || c > ghi.(i) then inside := false) g;
  !inside

(* Brute-force answers for a scan over the stored points (in grid
   coordinates, as the quadtree stores them). *)
let brute_scan grid = function
  | I.Box { lo; hi; _ } ->
      let glo = Point.to_grid lo and ghi = Point.to_grid hi in
      `Count (Array.fold_left (fun acc g -> if grid_in_box g glo ghi then acc + 1 else acc) 0 grid)
  | I.Knn { center; k } ->
      let d = Array.map (fun g -> Point.dist_sq (Point.of_grid g) center) grid in
      Array.sort compare d;
      `Dists (List.init (min k (Array.length d)) (fun i -> sqrt d.(i)))

let scan_matches grid s answer =
  match (brute_scan grid s, answer) with
  | `Count c, I.Box_hits { count; _ } -> c = count
  | `Dists ds, I.Knn_hits hits -> ds = List.map snd hits
  | _ -> false

let bulk_quadtree cfg r =
  let n = if cfg.smoke then 2_000 else 40_000 in
  let hosts = if cfg.smoke then 256 else 4096 in
  let round_queries = if cfg.smoke then 500 else 3_000 in
  let round_scans = if cfg.smoke then 100 else 600 in
  let round_fresh = if cfg.smoke then 200 else 3_000 in
  let points = W.uniform_points ~seed:cfg.seed ~n ~dim:2 in
  let grid = Array.map Point.to_grid points in
  let reference = Cqtree.build ~dim:2 points in
  with_pool 2 @@ fun pool ->
  let m = Meter.create ?pool () in
  let build = Meter.phase m "build" "Hierarchy.build" in
  let query = Meter.phase m "query" "Hierarchy.query_batch" in
  let scan = Meter.phase m "scan" "Hierarchy.scan_batch" in
  let insert = Meter.phase m "insert" "Hierarchy.insert_batch" in
  let remove = Meter.phase m "remove" "Hierarchy.remove_batch" in
  let make ?pool () =
    let net = Network.create ~hosts in
    (net, HPt.HS.build ~net ~seed:cfg.seed ?pool points)
  in
  let (net, h), setup_s = setup cfg m build ~items:n (make ?pool) in
  let b = HPt.built net h in
  Network.reset_traffic net;
  let wrong_cells = ref 0 and wrong_scans = ref 0 and wrong_writes = ref 0 in
  let first = first_round () and after0 = ref (0, 0.0) in
  let inputs0 = ref None and writes0 = ref None in
  let attempted = ref 0 in
  let round_inputs round =
    let rng = Prng.create (Prng.hash3 cfg.seed round 1) in
    let qs = W.uniform_query_points ~seed:(Prng.hash3 cfg.seed round 2) ~n:round_queries ~dim:2 in
    let scans =
      Array.init round_scans (fun j ->
          let x = Prng.float rng 0.85 and y = Prng.float rng 0.85 in
          if j mod 2 = 0 then I.Box { lo = [| x; y |]; hi = [| x +. 0.15; y +. 0.15 |]; limit = 32 }
          else I.Knn { center = [| x; y |]; k = 8 })
    in
    let fresh = W.uniform_points ~seed:(Prng.hash3 cfg.seed round 3) ~n:round_fresh ~dim:2 in
    (qs, scans, fresh)
  in
  r.Report.rounds <-
    Meter.rounds m ~traced:cfg.traced ~seconds:cfg.seconds ~min_rounds:(min_rounds cfg) (fun round ->
        let qs, scans, fresh = round_inputs round in
        let rng = Prng.create (Prng.hash3 cfg.seed round 4) in
        let answers =
          Meter.call m query ~items:round_queries ~op:round (fun () ->
              HPt.HS.query_batch ?pool h ~rng qs)
        in
        let hits =
          Meter.call m scan ~items:round_scans ~op:round (fun () -> HPt.HS.scan_batch ?pool h ~rng scans)
        in
        let write ph f =
          let count, seconds = timed (fun () -> Meter.call m ph ~items:round_fresh ~op:round f) in
          { count; memory = Network.total_memory net; seconds }
        in
        let added = write insert (fun () -> HPt.HS.insert_batch ?pool h fresh) in
        let gone = write remove (fun () -> HPt.HS.remove_batch ?pool h fresh) in
        attempted := !attempted + round_queries + round_scans + (2 * round_fresh);
        if added.count <> round_fresh || gone.count <> round_fresh then incr wrong_writes;
        (* One in a hundred answers against the reference tree and a
           brute-force scan; the structure holds exactly [points] while
           the queries and scans run. *)
        Array.iteri
          (fun j (a, _) ->
            if j mod 100 = 0 then begin
              let loc, _ = Cqtree.locate reference qs.(j) in
              let depth, _ = Cqtree.node_cube loc.Cqtree.node in
              if a.I.cell_depth <> depth || a.I.cell_point <> Cqtree.node_point loc.Cqtree.node then
                incr wrong_cells
            end)
          answers;
        Array.iteri
          (fun j (a, _) -> if j mod 100 = 0 && not (scan_matches grid scans.(j) a) then incr wrong_scans)
          hits;
        if round = 0 then begin
          Array.iteri
            (fun j (_, st) ->
              note first ~msgs:st.HPt.HS.messages ~visited:st.HPt.HS.ranges_visited qs.(j))
            answers;
          after0 := after_first_round net;
          inputs0 := Some (qs, scans, fresh);
          writes0 := Some (added, gone)
        end);
  r.Report.attempted <- !attempted;
  Report.check r (!wrong_cells = 0) "bulk-quadtree: %d sampled cells differ from the reference tree"
    !wrong_cells;
  Report.check r (!wrong_scans = 0) "bulk-quadtree: %d sampled scans differ from brute force"
    !wrong_scans;
  Report.check r (!wrong_writes = 0) "bulk-quadtree: %d batch writes changed the wrong number of points"
    !wrong_writes;
  Report.check r (HPt.built net h = b) "bulk-quadtree: the structure did not return to its set-up state";
  invariants r "bulk-quadtree" (fun () -> HPt.HS.check_invariants h);
  end_to_end r m ~setup_s ~query ~first ~after0:!after0
    ~mem_units_per_key:(float_of_int b.memory /. float_of_int b.size);
  if cfg.traced then begin
    network_counters r net;
    Report.layer r "hierarchy.query_batch_s" (Meter.mean_span query);
    Report.layer r "hierarchy.scan_batch_s" (Meter.mean_span scan);
    Report.layer r "hierarchy.insert_batch_s" (Meter.mean_span insert);
    Report.layer r "hierarchy.remove_batch_s" (Meter.mean_span remove);
    let qs, scans, fresh = Option.get !inputs0 in
    HPt.layers r ~seed:cfg.seed ~net ~h ~keys:points ~b ~first ~k:1 ~build ~query;
    let tree ?pool () = Cqtree.of_sorted ?pool ~dim:2 points in
    let t_pool, cqtree_s = timed (tree ?pool) in
    Report.layer r "cqtree.build_s" cqtree_s;
    let speedups =
      if Option.is_none pool then []
      else begin
        let t_seq, seq_s = timed (tree ?pool:None) in
        Report.check r
          (Cqtree.node_count t_pool = Cqtree.node_count t_seq && Cqtree.size t_pool = Cqtree.size t_seq)
          "cqtree: the pooled build differs from its jobs-1 re-run";
        Report.layer r "cqtree.pool_speedup" (seq_s /. cqtree_s);
        let coins = Prng.create (cfg.seed + 0xba7c) in
        let net1, h1, build_speedup = HPt.build_speedup r ~build ~b (make ?pool:None) in
        [
          ("build", build_speedup);
          ( "query",
            rerun r ~name:"query"
              ~same:( = )
              (fun () -> HPt.HS.query_batch ?pool h ~rng:(Prng.copy coins) qs)
              (fun () -> HPt.HS.query_batch h ~rng:(Prng.copy coins) qs) );
          ( "scan",
            rerun r ~name:"scan"
              ~same:( = )
              (fun () -> HPt.HS.scan_batch ?pool h ~rng:(Prng.copy coins) scans)
              (fun () -> HPt.HS.scan_batch h ~rng:(Prng.copy coins) scans) );
        ]
        @ write_speedups r ~pooled:(Option.get !writes0)
            ~memory:(fun () -> Network.total_memory net1)
            ~insert:(fun () -> HPt.HS.insert_batch h1 fresh)
            ~remove:(fun () -> HPt.HS.remove_batch h1 fresh)
      end
    in
    phase_layers r m ~pooled:[ "build"; "query"; "scan"; "insert"; "remove" ] ~speedups
  end;
  m

(* ------------------------------------------------------------------ *)
(* churn-replicated: replicated, cached 1-d hierarchy under failure and
   repair, with pooled batch writes beside single reads. *)

let churn_replicated cfg r =
  let n = if cfg.smoke then 2_000 else 20_000 in
  let batch = if cfg.smoke then 200 else 2_000 in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed:cfg.seed ~n ~bound in
  with_pool 2 @@ fun pool ->
  let m = Meter.create ?pool () in
  let build = Meter.phase m "build" "Hierarchy.build" in
  let insert = Meter.phase m "insert" "Hierarchy.insert_batch" in
  let query = Meter.phase m "query" "Hierarchy.query" in
  let repair = Meter.phase m "repair" "Hierarchy.repair" in
  let remove = Meter.phase m "remove" "Hierarchy.remove_batch" in
  let make ?pool () =
    let net = Network.create ~hosts:n in
    (net, HInt.HS.build ~net ~seed:cfg.seed ~r:2 ~cache_levels:4 ~cache_replicas:4 ?pool keys)
  in
  let (net, h), setup_s = setup cfg m build ~items:n (make ?pool) in
  let b = HInt.built net h in
  Network.reset_traffic net;
  let live = ref (IS.of_seq (Array.to_seq keys)) in
  let coins = Prng.create (cfg.seed + 0x5e3) in
  let op = ref 0 and wrong = ref 0 and failed = ref 0 and wrong_writes = ref 0 and lost = ref 0 in
  let first = first_round () and after0 = ref (0, 0.0) in
  let scanned = ref 0 and repaired = ref 0 and epochs = ref 0 in
  let fresh0 = ref [||] and writes0 = ref None in
  (* [batch] distinct keys from [bound, 2 bound) that are not stored. *)
  let fresh_keys rng =
    let seen = Hashtbl.create batch in
    let out = ref [] in
    while Hashtbl.length seen < batch do
      let k = bound + Prng.int rng bound in
      if not (Hashtbl.mem seen k || IS.mem k !live) then begin
        Hashtbl.replace seen k ();
        out := k :: !out
      end
    done;
    Array.of_list (List.rev !out)
  in
  r.Report.rounds <-
    Meter.rounds m ~traced:cfg.traced ~seconds:cfg.seconds ~min_rounds:(min_rounds cfg) (fun epoch ->
        let rng = Prng.create (Prng.hash2 cfg.seed epoch) in
        let fresh = fresh_keys rng in
        let write ph f =
          let count, seconds = timed (fun () -> Meter.call m ph ~items:batch ~op:!op f) in
          { count; memory = Network.total_memory net; seconds }
        in
        let added = write insert (fun () -> HInt.HS.insert_batch ?pool h fresh) in
        Array.iter (fun k -> live := IS.add k !live) fresh;
        let victim = Prng.int rng n in
        Meter.group m "Network.kill" ~op:!op (fun () -> Network.kill net victim);
        for _ = 1 to batch do
          let i = !op in
          incr op;
          let q = Prng.int rng (2 * bound) in
          match
            Meter.call m query ~op:i (fun () ->
                try Some (HInt.HS.query h ~rng:(Prng.stream coins i) q) with Network.Host_dead _ -> None)
          with
          | None -> incr failed
          | Some (answer, st) ->
              if answer <> nearest !live q then incr wrong;
              if epoch = 0 then
                note first ~msgs:st.HInt.HS.messages ~visited:st.HInt.HS.ranges_visited q
        done;
        let st = Meter.call m repair ~op:!op (fun () -> HInt.HS.repair h) in
        scanned := !scanned + st.HInt.HS.scanned;
        repaired := !repaired + st.HInt.HS.repaired;
        lost := !lost + st.HInt.HS.lost;
        incr epochs;
        Meter.group m "Network.revive" ~op:!op (fun () -> Network.revive net victim);
        let gone = write remove (fun () -> HInt.HS.remove_batch ?pool h fresh) in
        Array.iter (fun k -> live := IS.remove k !live) fresh;
        if added.count <> batch || gone.count <> batch then incr wrong_writes;
        if epoch = 0 then begin
          after0 := after_first_round net;
          fresh0 := fresh;
          writes0 := Some (added, gone)
        end);
  r.Report.attempted <- !op + (2 * batch * !epochs);
  r.Report.failed <- !failed;
  Report.check r (!wrong = 0) "churn-replicated: %d nearest answers differ from the model" !wrong;
  Report.check r (!wrong_writes = 0) "churn-replicated: %d batch writes changed the wrong number of keys"
    !wrong_writes;
  Report.check r (!lost = 0) "churn-replicated: repair lost %d copies with one host down" !lost;
  Report.check r (HInt.built net h = b) "churn-replicated: the structure did not return to its set-up state";
  invariants r "churn-replicated" (fun () -> HInt.HS.check_invariants h);
  end_to_end r m ~setup_s ~query ~first ~after0:!after0
    ~mem_units_per_key:(float_of_int b.memory /. float_of_int b.size);
  Report.extra r "repair_ms" (Meter.quantile repair 0.5 *. 1e3) "ms";
  if cfg.traced then begin
    network_counters r net;
    Report.layer r "hierarchy.insert_batch_s" (Meter.mean_span insert);
    Report.layer r "hierarchy.remove_batch_s" (Meter.mean_span remove);
    Report.layer r "hierarchy.repair_s" (Meter.mean_span repair);
    let per_epoch x = float_of_int x /. float_of_int (max 1 !epochs) in
    Report.layer r "hierarchy.repair_scanned" (per_epoch !scanned);
    Report.layer r "hierarchy.repair_repaired" (per_epoch !repaired);
    Report.layer r "hierarchy.repair_useful_ratio"
      (float_of_int !repaired /. float_of_int (max 1 !scanned));
    HInt.layers r ~seed:cfg.seed ~net ~h ~keys ~b ~first ~k:4 ~build ~query;
    ordseq_layers r ~pool ~keys ~queries:(sample first) ~fresh:!fresh0;
    let speedups =
      if Option.is_none pool then []
      else begin
        let fresh = !fresh0 in
        let net1, h1, build_speedup = HInt.build_speedup r ~build ~b (make ?pool:None) in
        ("build", build_speedup)
        :: write_speedups r ~pooled:(Option.get !writes0)
             ~memory:(fun () -> Network.total_memory net1)
             ~insert:(fun () -> HInt.HS.insert_batch h1 fresh)
             ~remove:(fun () -> HInt.HS.remove_batch h1 fresh)
      end
    in
    phase_layers r m ~pooled:[ "build"; "insert"; "remove" ] ~speedups
  end;
  m

let all =
  [
    ("serve-1d", (serve_1d, 1));
    ("serve-blocked", (serve_blocked, 1));
    ("bulk-quadtree", (bulk_quadtree, 2));
    ("churn-replicated", (churn_replicated, 2));
  ]
