(* E19: the congestion observatory — where does a skewed workload's
   load actually land?

   The Skip Graphs line of work warns that the top levels of any skip
   structure concentrate traffic on a few hosts; the ROADMAP's
   serving-at-scale item needs that measured before it can be attacked
   (level caching / hotspot flattening). This experiment drives mixed
   uniform + Zipf(1.1) query traffic against both skip-web structures
   at n up to 10^6 (10^5 and 10^6 in the full sweep) and reports, per
   row:

     - the exact per-operation message distribution: query i writes its
       message count into slot i of one array inside the parallel query
       phase, and Stats summarizes it afterwards;
     - the exact top-k hottest hosts, selected from the network's
       per-host traffic counters after the phase; the bench aborts
       unless the top-1 visits equal the congestion max;
     - congestion percentiles (p50/p90/p99/max) and the Gini
       coefficient of per-host traffic — the inequality the upper
       levels create, and the y-axis any future flattening work must
       push down;
     - a per-level attribution of load from a small traced sample that
       records into one shared Trace, showing which refinement levels
       the messages come from. The sample runs first and its traffic is
       reset away, so the congestion numbers describe the main phase
       only.

   Query i draws its coins from [Prng.stream] i and owns slot i of the
   message array, and the per-host counters are sums, so every
   deterministic JSON field is bit-identical for any jobs count; wall
   clocks live in the "timing" member, stripped by CI like every other
   bench. Results go to BENCH_hotspot.json; CI's smoke leg asserts the
   top_k and congestion members are present. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Obs = Skipweb_net.Observatory
module H = Skipweb_core.Hierarchy
module B1 = Skipweb_core.Blocked1d
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module DPool = Skipweb_util.Pool
module C = Bench_common

module HInt = H.Make (I.Ints)

let top_k = 10
let traced_sample = 48

type row = {
  structure : string;
  n : int;
  hosts : int;
  queries : int;
  traced : int;
  msgs : Stats.summary;  (* per-op query message distribution *)
  top : (int * int) list;  (* exact (host, visits), hottest first *)
  congestion : Obs.congestion;
  levels : (int * int) list;
  unattributed : int;
  wall_s : float;
  jobs : int;
}

(* One measured row. [query_one rng q] runs one query and returns its
   message count; [traced_query rng tr q] the same with a trace. *)
let drive_row ~structure ~pool ~jobs ~net ~n ~queries ~seed ~query_one ~traced_query ~qs =
  (* Attribution sample: a few traced queries, sequential, all recording
     into one trace, then reset the workload counters so the main
     phase's congestion is clean. *)
  let traced = min traced_sample queries in
  let tcoins = Prng.create (seed + 0x7a) in
  let tr = Trace.create () in
  for i = 0 to traced - 1 do
    ignore (traced_query (Prng.stream tcoins i) tr qs.(i) : int)
  done;
  Network.reset_traffic net;
  (* Main phase: fan the queries over the pool. Query i's coins are a
     pure function of (seed, i) and its message count lands in slot i,
     so the distribution is identical for any jobs count. *)
  let coins = Prng.create (seed + 0xe19) in
  let msgs = Array.make queries 0 in
  let t0 = C.now () in
  let one i = msgs.(i) <- query_one (Prng.stream coins i) qs.(i) in
  (match pool with
  | None ->
      for i = 0 to queries - 1 do
        one i
      done
  | Some p -> DPool.parallel_for p ~lo:0 ~hi:queries one);
  let wall_s = C.now () -. t0 in
  let top = Obs.hot_hosts net ~k:top_k in
  let congestion = Obs.congestion_of net in
  (match top with
  | (_, v) :: _ when float_of_int v = congestion.Obs.max -> ()
  | _ ->
      failwith
        (Printf.sprintf "E19: %s n=%d: top-1 visits disagree with congestion max %g" structure n
           congestion.Obs.max));
  {
    structure;
    n;
    hosts = Network.host_count net;
    queries;
    traced;
    msgs = Stats.summarize_ints (Array.to_list msgs);
    top;
    congestion;
    levels = Trace.per_level_hops tr;
    unattributed = Trace.unattributed_hops tr;
    wall_s;
    jobs;
  }

let hierarchy_row ~pool ~jobs ~seed ~queries n =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts:n in
  let h = HInt.build ~net ~seed ?pool keys in
  let qs = W.mixed_queries ~seed ~keys ~total:queries ~bound () in
  let query_one rng q =
    let _, st = HInt.query h ~rng q in
    st.HInt.messages
  in
  let traced_query rng tr q =
    let _, st = HInt.query ~trace:tr h ~rng q in
    st.HInt.messages
  in
  drive_row ~structure:"hierarchy" ~pool ~jobs ~net ~n ~queries ~seed ~query_one ~traced_query ~qs

let blocked_row ~pool ~jobs ~seed ~queries n =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts:n in
  let b = B1.build ~net ~seed ~m:(4 * C.log2i n) ?pool keys in
  let qs = W.mixed_queries ~seed ~keys ~total:queries ~bound () in
  let query_one rng q = (B1.query b ~rng q).B1.messages in
  let traced_query rng tr q = (B1.query ~trace:tr b ~rng q).B1.messages in
  drive_row ~structure:"blocked1d" ~pool ~jobs ~net ~n ~queries ~seed ~query_one ~traced_query ~qs

let json_of_rows rows =
  let pairs fmt xs =
    "[" ^ String.concat ", " (List.map (fun (a, b) -> Printf.sprintf fmt a b) xs) ^ "]"
  in
  let row_json r =
    Printf.sprintf
      "    {\"structure\": \"%s\", \"n\": %d, \"hosts\": %d, \"queries\": %d, \"traced\": %d,\n\
      \     \"query_messages\": %s,\n\
      \     \"top_k\": %s,\n\
      \     \"congestion\": %s,\n\
      \     \"levels\": %s, \"unattributed\": %d,\n\
      \     \"timing\": {\"jobs\": %d, \"wall_s\": %.6f}}"
      r.structure r.n r.hosts r.queries r.traced (C.json_of_summary r.msgs)
      (pairs "{\"host\": %d, \"visits\": %d}" r.top)
      (Obs.congestion_to_json r.congestion)
      (pairs "{\"level\": %d, \"hops\": %d}" r.levels)
      r.unattributed r.jobs r.wall_s
  in
  Printf.sprintf
    "{\n  \"experiment\": \"hotspot\",\n  \"workload\": \"mixed uniform + Zipf(1.1) query \
     traffic; exact per-query message counts, exact top-%d hosts from the per-host counters, \
     congestion percentiles + Gini, per-level attribution from one shared trace\",\n  \
     \"domains\": %d,\n  \"ocaml\": \"%s\",\n  \"rows\": [\n%s\n  ]\n}\n"
    top_k
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ",\n" (List.map row_json rows))

let run (cfg : C.config) =
  C.section "Hotspots and congestion observatory (E19)";
  let seed = List.hd cfg.C.seeds in
  let sizes = if cfg.C.quick then [ 20_000 ] else [ 100_000; 1_000_000 ] in
  let queries = if cfg.C.quick then 2_000 else 20_000 in
  let rows =
    C.with_pool cfg (fun pool ->
        let jobs = match pool with None -> 1 | Some p -> DPool.jobs p in
        List.concat_map
          (fun n ->
            [
              hierarchy_row ~pool ~jobs ~seed ~queries n;
              blocked_row ~pool ~jobs ~seed ~queries n;
            ])
          sizes)
  in
  let tbl =
    Skipweb_util.Tables.create
      ~title:
        (Printf.sprintf "hotspots under mixed uniform + Zipf(1.1) traffic (%d job(s))" cfg.C.jobs)
      ~columns:
        [
          "structure"; "n"; "queries"; "msgs p50"; "msgs p99"; "traffic p50"; "traffic p99";
          "traffic max"; "gini"; "hottest host";
        ]
  in
  List.iter
    (fun r ->
      let m = r.msgs and c = r.congestion in
      Skipweb_util.Tables.add_row tbl
        [
          r.structure;
          string_of_int r.n;
          string_of_int r.queries;
          Printf.sprintf "%g" m.Stats.p50;
          Printf.sprintf "%g" m.Stats.p99;
          Printf.sprintf "%.0f" c.Obs.p50;
          Printf.sprintf "%.0f" c.Obs.p99;
          Printf.sprintf "%.0f" c.Obs.max;
          Printf.sprintf "%.4f" c.Obs.gini;
          (match r.top with (h, _) :: _ -> string_of_int h | [] -> "-");
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  C.write_json ~file:"BENCH_hotspot.json" (json_of_rows rows)
