(* E20: serving at scale — where does skewed load land, and does the
   read-path level cache flatten it?

   The Skip Graphs line of work warns that the top levels of any skip
   structure concentrate traffic on a few hosts. This experiment measures
   that and attacks it: it drives an {e open-loop} skewed workload
   (Poisson arrivals, 90/10 read/write mix for the hierarchy, Zipf(1.1) +
   uniform query blend, fully replayable from its seed — [Open_loop.plan])
   against builds with the level cache configured at c = 4 coarse levels
   and k ∈ {1, 2, 4} replicas, at n up to 10^6, and reports per row:

     - the exact per-query message distribution — the cache must not
       move it: per-query cost stays O(log n);
     - the congestion Gini and p99/max of per-host traffic, and the share
       of traffic served by the 16 busiest hosts — the flattening;
     - the exact top-10 hottest hosts, read from the network's per-host
       counters; the bench aborts unless the top-1 visits equal the
       congestion max;
     - the per-level attribution of a 48-query traced read sample, all
       recording into one shared Trace — which refinement levels the
       messages come from. The sample runs before the row's traffic
       reset, so no other member sees it;
     - the network's total message count, asserted equal across k up to a
       tiny relative epsilon (caching only relocates reads; the rare saved
       hop is a placement collision, ~1/H per visit).

   Two hard checks are built in rather than eyeballed:

     - k = 1 must be {e byte-identical} to an uncached build: the row is
       driven twice, once with the cache configured at k = 1 and once with
       no cache arguments at all, and the total message counts must match
       exactly ("uncached_match" in the JSON — CI greps for it);
     - the Gini must strictly decrease k = 1 → 2 → 4 for the hierarchy
       and be non-increasing with a strict overall drop for the blocked
       structure (whose group cache only spreads basic-block groups).

   The hierarchy replays the identical event plan against a fresh build
   per k (the cache is a build-time parameter there); the blocked
   structure is built {e once} per n and re-pointed with [set_cache] —
   the sweep this call exists for. Replay is sequential for the hierarchy
   (writes mutate the structure; event i's query coins come from
   [Prng.stream] i) and batched for the read-only blocked plan, so
   BENCH_serving.json is a function of the seed and sizes, identical for
   any --jobs count. The serving wall clock is measured by perf/: the
   [serve-1d] workload's [ops_per_s] and [query_p50_us] on the hierarchy,
   and [serve-blocked]'s on the blocked structure. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Obs = Skipweb_net.Observatory
module H = Skipweb_core.Hierarchy
module B1 = Skipweb_core.Blocked1d
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module OL = Skipweb_workload.Open_loop
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module C = Bench_common

module HInt = H.Make (I.Ints)

let cache_levels = 4
let cache_ks = [ 1; 2; 4 ]
let top_m = 16
let top_k = 10
let traced_sample = 48
let msg_epsilon = 0.002

type row = {
  structure : string;
  n : int;
  hosts : int;
  k : int;
  ops : int;
  counts : OL.counts;
  total_msgs : int;
  read_msgs : Stats.summary;
  congestion : Obs.congestion;
  top_share : float;
  top : (int * int) list;  (* exact (host, visits), hottest first *)
  traced : int;
  levels : (int * int) list;
  unattributed : int;
}

(* The open-loop plan of one size: [salt] keeps the two structures'
   plans apart, [read_fraction] = 1 makes it read-only. *)
let plan ~seed ~salt ~read_fraction ~ops n =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let spec =
    {
      OL.seed = seed + salt;
      ops;
      rate = 1000.0;
      read_fraction;
      zipf_share = 0.5;
      zipf_s = 1.1;
      bound;
    }
  in
  let events = OL.plan spec ~keys in
  let qs =
    Array.of_list
      (List.filter_map
         (function { OL.op = OL.Query q; _ } -> Some q | _ -> None)
         (Array.to_list events))
  in
  (keys, events, qs)

(* The attribution sample: the plan's first [traced_sample] queries,
   sequential, all recording into one trace. *)
let trace_sample ~seed query_traced qs =
  let traced = min traced_sample (Array.length qs) in
  let coins = Prng.create (seed + 0x7a) in
  let tr = Trace.create () in
  for i = 0 to traced - 1 do
    query_traced ~rng:(Prng.stream coins i) tr qs.(i)
  done;
  (traced, tr)

(* One row from the network after a replay, with the cross-k message
   checks against [base_total], the uncached replay's network total. *)
let make_row ~structure ~n ~k ~ops ~counts ~base_total ~net ~read_msgs ~sample:(traced, tr) =
  let fail fmt = Printf.ksprintf failwith ("E20: %s n=%d k=%d: " ^^ fmt) structure n k in
  let total = Network.total_messages net in
  if k = 1 && total <> base_total then
    fail "not byte-identical to uncached (%d vs %d msgs)" total base_total;
  if abs_float (float_of_int (total - base_total)) > msg_epsilon *. float_of_int base_total then
    fail "moved total messages beyond epsilon (%d vs %d)" total base_total;
  let congestion = Obs.congestion_of net in
  let top = Obs.hot_hosts net ~k:top_k in
  (match top with
  | (_, v) :: _ when float_of_int v = congestion.Obs.max -> ()
  | _ -> fail "top-1 visits disagree with congestion max %g" congestion.Obs.max);
  {
    structure;
    n;
    hosts = Network.host_count net;
    k;
    ops;
    counts;
    total_msgs = total;
    read_msgs;
    congestion;
    top_share = Obs.top_share net ~m:top_m;
    top;
    traced;
    levels = Trace.per_level_hops tr;
    unattributed = Trace.unattributed_hops tr;
  }

(* ------- hierarchy: open-loop mixed churn, fresh build per k ------- *)

(* Replay the plan sequentially and summarize the queries' message
   counts. Query i's origin coins are a pure function of (seed, i) —
   identical whichever build consumes them. *)
let replay_hierarchy h ~seed events =
  let coins = Prng.create (seed + 0x5e1) in
  let msgs = ref [] in
  Array.iteri
    (fun i e ->
      match e.OL.op with
      | OL.Query q ->
          let _, st = HInt.query h ~rng:(Prng.stream coins i) q in
          msgs := st.HInt.messages :: !msgs
      | OL.Insert key -> ignore (HInt.insert h key : int)
      | OL.Remove key -> ignore (HInt.remove h key : int))
    events;
  Stats.summarize_ints !msgs

let hierarchy_rows ~pool ~seed ~ops n =
  let keys, events, qs = plan ~seed ~salt:0xe20 ~read_fraction:0.9 ~ops n in
  let run ~cache =
    let net = Network.create ~hosts:n in
    (* Not through the roster: traced queries draw coins the sweep supplies. *)
    let h =
      match cache with
      | None -> HInt.build ~net ~seed ?pool keys
      | Some k -> HInt.build ~net ~seed ~cache_levels ~cache_replicas:k ?pool keys
    in
    let sample =
      trace_sample ~seed (fun ~rng tr q -> ignore (HInt.query ~trace:tr h ~rng q)) qs
    in
    Network.reset_traffic net;
    (net, sample, replay_hierarchy h ~seed events)
  in
  let net0, _, _ = run ~cache:None in
  let base_total = Network.total_messages net0 in
  List.map
    (fun k ->
      let net, sample, read_msgs = run ~cache:(Some k) in
      make_row ~structure:"hierarchy" ~n ~k ~ops ~counts:(OL.counts events) ~base_total ~net
        ~read_msgs ~sample)
    cache_ks

(* ------- blocked 1-d: one build per n, set_cache sweep ------- *)

let blocked_rows ~pool ~seed ~ops n =
  (* Read-only: the structure stays fixed, so one build serves the whole
     k sweep. *)
  let keys, events, qs = plan ~seed ~salt:0xe21 ~read_fraction:1.0 ~ops n in
  let net = Network.create ~hosts:n in
  (* Not through the roster: the sweep calls [set_cache] and traces
     queries with coins it supplies, which the driver does not expose. *)
  let b = B1.build ~net ~seed ~m:(4 * C.log2i n) ?pool keys in
  let serve () =
    Network.reset_traffic net;
    let results = B1.query_batch ?pool b ~rng:(Prng.create (seed + 0x5e2)) qs in
    Stats.summarize_ints (Array.to_list (Array.map (fun (r : B1.search_result) -> r.messages) results))
  in
  ignore (serve () : Stats.summary);
  let base_total = Network.total_messages net in
  List.map
    (fun k ->
      B1.set_cache b ~levels:cache_levels ~k;
      let sample =
        trace_sample ~seed (fun ~rng tr q -> ignore (B1.query ~trace:tr b ~rng q)) qs
      in
      let read_msgs = serve () in
      make_row ~structure:"blocked1d" ~n ~k ~ops ~counts:(OL.counts events) ~base_total ~net
        ~read_msgs ~sample)
    cache_ks

(* The point of the experiment, asserted rather than eyeballed: more
   cache replicas must flatten the per-host traffic distribution. *)
let assert_flattening rows =
  let by_struct s = List.filter (fun r -> r.structure = s) rows in
  List.iter
    (fun s ->
      let sr = by_struct s in
      List.iter
        (fun r ->
          match List.find_opt (fun r' -> r'.n = r.n && r'.k = 2 * r.k) sr with
          | None -> ()
          | Some r' ->
              let g = r.congestion.Obs.gini and g' = r'.congestion.Obs.gini in
              let ok = if s = "hierarchy" then g' < g else g' <= g +. 1e-9 in
              if not ok then
                failwith
                  (Printf.sprintf "E20: %s n=%d gini did not flatten k=%d→%d (%.4f → %.4f)" s
                     r.n r.k r'.k g g'))
        sr;
      (* Overall strict drop k = 1 → 4 for both structures. *)
      List.iter
        (fun r1 ->
          if r1.k = 1 then
            match List.find_opt (fun r' -> r'.n = r1.n && r'.k = 4) sr with
            | None -> ()
            | Some r4 ->
                if not (r4.congestion.Obs.gini < r1.congestion.Obs.gini) then
                  failwith
                    (Printf.sprintf "E20: %s n=%d gini not strictly lower at k=4 (%.4f vs %.4f)"
                       s r1.n r4.congestion.Obs.gini r1.congestion.Obs.gini))
        sr)
    [ "hierarchy"; "blocked1d" ];
  Printf.printf "cache flattening: OK (gini decreases with k on every row pair)\n"

let json_of_rows rows =
  let pairs fmt xs =
    "[" ^ String.concat ", " (List.map (fun (a, b) -> Printf.sprintf fmt a b) xs) ^ "]"
  in
  let row_json r =
    Printf.sprintf
      "    {\"structure\": \"%s\", \"n\": %d, \"hosts\": %d, \"cache_levels\": %d, \
       \"cache_replicas\": %d,\n\
      \     \"ops\": %d, \"queries\": %d, \"inserts\": %d, \"removes\": %d,\n\
      \     \"total_messages\": %d, \"mean_read_messages\": %.4f,%s\n\
      \     \"read_messages\": %s,\n\
      \     \"congestion\": %s,\n\
      \     \"top%d_share\": %.6f,\n\
      \     \"top_k\": %s,\n\
      \     \"traced\": %d, \"levels\": %s, \"unattributed\": %d}"
      r.structure r.n r.hosts cache_levels r.k
      r.ops r.counts.OL.queries r.counts.OL.inserts r.counts.OL.removes r.total_msgs
      r.read_msgs.Stats.mean
      (if r.k = 1 then " \"uncached_match\": true," else "")
      (C.json_of_summary r.read_msgs)
      (Obs.congestion_to_json r.congestion)
      top_m r.top_share
      (pairs "{\"host\": %d, \"visits\": %d}" r.top)
      r.traced
      (pairs "{\"level\": %d, \"hops\": %d}" r.levels)
      r.unattributed
  in
  Printf.sprintf
    "{\n  \"experiment\": \"serving\",\n  \"workload\": \"open-loop Poisson arrivals, \
     Zipf(1.1)+uniform blend; hierarchy 90/10 read/write churn, blocked read-only; level cache \
     c=%d swept over k=1/2/4 (k=1 asserted byte-identical to uncached)\",\n  \"rows\": \
     [\n%s\n  ]\n}\n"
    cache_levels
    (String.concat ",\n" (List.map row_json rows))

let run (cfg : C.config) =
  C.section "Serving at scale: hotspots and the level cache (E20)";
  let seed = List.hd cfg.C.seeds in
  let sizes = if cfg.C.quick then [ 20_000 ] else [ 100_000; 1_000_000 ] in
  let ops = if cfg.C.quick then 2_000 else 20_000 in
  let rows =
    C.with_pool cfg (fun pool ->
        List.concat_map
          (fun n -> hierarchy_rows ~pool ~seed ~ops n @ blocked_rows ~pool ~seed ~ops n)
          sizes)
  in
  assert_flattening rows;
  let tbl =
    Skipweb_util.Tables.create
      ~title:
        (Printf.sprintf
           "level cache c=%d under open-loop Zipf(1.1) traffic (%d job(s))" cache_levels
           cfg.C.jobs)
      ~columns:
        [
          "structure"; "n"; "k"; "total msgs"; "mean read"; "traffic p99"; "traffic max"; "gini";
          Printf.sprintf "top%d share" top_m; "hottest host";
        ]
  in
  List.iter
    (fun r ->
      Skipweb_util.Tables.add_row tbl
        [
          r.structure;
          string_of_int r.n;
          string_of_int r.k;
          string_of_int r.total_msgs;
          Printf.sprintf "%.2f" r.read_msgs.Stats.mean;
          Printf.sprintf "%.0f" r.congestion.Obs.p99;
          Printf.sprintf "%.0f" r.congestion.Obs.max;
          Printf.sprintf "%.4f" r.congestion.Obs.gini;
          Printf.sprintf "%.4f" r.top_share;
          (match r.top with (h, _) :: _ -> string_of_int h | [] -> "-");
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  C.write_json ~file:"BENCH_serving.json" (json_of_rows rows)
