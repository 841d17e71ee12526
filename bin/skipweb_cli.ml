(* skipweb_cli: build any 1-d structure of the roster (Skipweb_roster: the
   seven Table 1 rows and the generic hierarchy, the same builds the
   Table 1, churn and congestion benches drive) on the simulated network,
   drive a workload over it, and print the measured cost columns of
   Table 1 (M, C, Q, U).

   Examples:
     dune exec bin/skipweb_cli.exe -- stats --structure skipweb -n 4096 -u 0
     dune exec bin/skipweb_cli.exe -- stats --structure skipgraph -n 2048 -q 0 -u 50
     dune exec bin/skipweb_cli.exe -- load -s skipweb-generic -n 100000 --jobs 4
     dune exec bin/skipweb_cli.exe -- trace -s skipweb -n 1024
     dune exec bin/skipweb_cli.exe -- stats -s bucket-skipweb -n 4096
     dune exec bin/skipweb_cli.exe -- churn -s skipweb-generic -n 2048 --r 2 --epochs 8
     dune exec bin/skipweb_cli.exe -- hotspots -s skipweb-generic -n 4096 --queries 2000 --alpha 1.3
     dune exec bin/skipweb_cli.exe -- serve -s skipweb-generic -n 4096 --ops 4000 --cache-replicas 4
     dune exec bin/skipweb_cli.exe -- monitor -s skipweb -n 2048 --epochs 12 --window 6
     dune exec bin/skipweb_cli.exe -- range -n 100000 --lo 0.2,0.2 --hi 0.6,0.6 --limit 10
     dune exec bin/skipweb_cli.exe -- knn -n 100000 --at 0.5,0.5 -k 8 --jobs 4
     dune exec bin/skipweb_cli.exe -- prefix -n 100000 --prefix 978-0- --limit 10

   --jobs threads a domain pool through the read phases (churn's epochs
   included) and the write paths (load's bulk build, the blocked
   skip-webs' update rebuilds); the output is bit-identical for any jobs
   count (only the opt-in --pool-stats figures are wall clock; perf/
   times these paths). An out-of-range argument exits 2 with a one-line
   message before anything is built. *)

module Network = Skipweb_net.Network
module Placement = Skipweb_net.Placement
module Trace = Skipweb_net.Trace
module Obs = Skipweb_net.Observatory
module Metrics = Skipweb_util.Metrics
module Series = Skipweb_util.Series
module Pool = Skipweb_util.Pool
module R = Skipweb_roster.Roster
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables

(* Hosts of a structure's network: one per key plus [pad] spares for
   inserts. Deterministic SkipNet takes a second host per key, the bucket
   skip graph two per bucket, the bucket skip-web one per bucket. *)
let host_count structure ~n ~pad ~buckets =
  let buckets = match buckets with Some b -> b | None -> R.default_buckets n in
  match structure with
  | R.Det_skipnet -> (2 * n) + pad + 4
  | R.Bucket_skip_graph -> 2 * buckets
  | R.Bucket_skipweb -> buckets
  | _ -> n + pad

(* ---------------- argument validation ---------------- *)

(* The one validation path: a subcommand lists its range checks, and the
   first that fails exits 2 with a one-line message before anything is
   built. *)
let validate cmd checks =
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2
  | None -> ()

let at_least flag lo v = (v >= lo, Printf.sprintf "%s must be >= %d" flag lo)
let positive flag v = (v > 0.0, flag ^ " must be > 0")

(* The checks every 1-d driver run shares (-m and --buckets when given). *)
let driver_checks structure ~n ~m ~buckets ?(cache = (0, 1)) () =
  let levels, k = cache and hosts = host_count structure ~n ~pad:0 ~buckets in
  [
    at_least "-n" 1 n;
    at_least "-m" 4 (Option.value m ~default:4);
    at_least "--buckets" 1 (Option.value buckets ~default:1);
    at_least "--cache-levels" 0 levels;
    (k >= 1 && k <= hosts, Printf.sprintf "--cache-replicas must be in [1, H] (H = %d hosts)" hosts);
  ]

(* ---------------- the structure driver ---------------- *)

(* The only place the CLI builds a 1-d structure: the roster's entry on
   its own network, with [pad] spare hosts, and the CLI's one-line
   description of it. [pool] accelerates the skip-web builds, and the
   blocked ones keep it for their update rebuilds, so every caller scopes
   driver creation and use inside one [Pool.with_pool]. Only the
   skip-webs replicate; a replicated driver describes its [r]. *)
let driver structure ~pad ~seed ~m ~buckets ?(cache = (0, 1)) ?r ?pool keys =
  let n = Array.length keys in
  let net = Network.create ~hosts:(host_count structure ~n ~pad ~buckets) in
  let buckets = match buckets with Some b -> b | None -> R.default_buckets n in
  let d = R.build structure ~net ~seed ?m ~buckets ~cache ?r ?pool keys in
  let m = Option.value d.R.m ~default:0 in
  let cache_levels, cache_replicas = cache in
  let cache_tag =
    if cache_replicas > 1 then Printf.sprintf ", cache c=%d k=%d" cache_levels cache_replicas
    else ""
  in
  ( d,
    match (structure, r) with
    | R.Skip_graph, _ -> "skip graph (Aspnes-Shah) / SkipNet, H = n"
    | R.Non_skip_graph, _ -> "NoN skip graph (Manku-Naor-Wieder lookahead), H = n"
    | R.Family_tree, _ -> "family tree comparator (constant-degree overlay), H = n"
    | R.Det_skipnet, _ -> "deterministic SkipNet (1-2-3 skip list), H = n"
    | R.Bucket_skip_graph, _ -> Printf.sprintf "bucket skip graph, H = %d < n" buckets
    | R.Skipweb, Some r -> Printf.sprintf "skip-web, blocked (§2.4.1), M = %d, r = %d" m r
    | R.Skipweb, None -> Printf.sprintf "skip-web, blocked (§2.4.1), H = n, M = %d%s" m cache_tag
    | R.Bucket_skipweb, Some r ->
        Printf.sprintf "bucket skip-web, blocked (§2.4.1), H = %d, M = %d, r = %d" buckets m r
    | R.Bucket_skipweb, None ->
        Printf.sprintf "bucket skip-web, blocked (§2.4.1), H = %d < n, M = %d%s" buckets m cache_tag
    | R.Skipweb_generic, Some r -> Printf.sprintf "skip-web, arbitrary placement (§2.4), r = %d" r
    | R.Skipweb_generic, None -> "skip-web, arbitrary placement (§2.4 general)" ^ cache_tag )

(* Bulk-load a structure and report its storage footprint and build
   messages. The output is bit-identical for any --jobs value. *)
let run_load structure n seed m buckets jobs =
  validate "load" (driver_checks structure ~n ~m ~buckets ());
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:16 ~seed ~m ~buckets ?pool keys in
  let hosts = Network.host_count d.net in
  Printf.printf "structure: %s\n" describe;
  Printf.printf "items: %d   hosts: %d\n\n" n hosts;
  let mem = Array.init hosts (fun h -> Network.memory d.net h) in
  let total = Array.fold_left ( + ) 0 mem in
  let busiest = Array.fold_left max 0 mem in
  let t = Tables.create ~title:"bulk load" ~columns:[ "metric"; "value" ] in
  Tables.add_row t [ "total memory (units)"; string_of_int total ];
  Tables.add_row t [ "busiest host (units)"; string_of_int busiest ];
  Tables.add_row t
    [ "mean per host (units)"; Tables.cell_float (float_of_int total /. float_of_int hosts) ];
  Tables.add_row t [ "build messages"; string_of_int (Network.total_messages d.net) ];
  Tables.print t;
  0

(* ---------------- trace: one op, rendered hop tree ---------------- *)

(* The per-level message table [trace] and [hotspots] share, with the
   hops no level span claimed on a last "(none)" row. *)
let print_level_table ~title ~column levels tr =
  let t = Tables.create ~title ~columns:[ "level"; column ] in
  List.iter (fun (level, c) -> Tables.add_row t [ string_of_int level; string_of_int c ]) levels;
  (match Trace.unattributed_hops tr with
  | 0 -> ()
  | u -> Tables.add_row t [ "(none)"; string_of_int u ]);
  Tables.print t

(* The acceptance check of the trace layer, printed so every run shows it:
   the per-level decomposition must account for every message the session
   paid. *)
let print_sum_check tr session_messages =
  let sum =
    List.fold_left
      (fun acc (_, c) -> acc + c)
      (Trace.unattributed_hops tr) (Trace.per_level_hops tr)
  in
  Printf.printf "per-level total = %d, session messages = %d%s\n" sum session_messages
    (if sum = session_messages then "  [consistent]" else "  [MISMATCH]");
  if sum = session_messages then 0 else 1

let run_trace structure n seed m at =
  validate "trace" (driver_checks structure ~n ~m ~buckets:None ());
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  let q = match at with Some q -> q | None -> 50 * n in
  let d, describe = driver structure ~pad:0 ~seed ~m ~buckets:None keys in
  match d.R.query_traced with
  | None ->
      prerr_endline "trace: only the skip-webs' queries are traceable";
      1
  | Some traced ->
      let tr = Trace.create () in
      let answer, messages = traced tr q in
      Printf.printf "structure: %s\n"
        (match structure with
        | R.Skipweb -> Printf.sprintf "skip-web, blocked (§2.4.1), M = %d" (Option.get d.m)
        | _ -> describe);
      Printf.printf "n = %d   query %d -> nearest %s\n\n" n q
        (match answer with Some a -> string_of_int a | None -> "none");
      print_string (Trace.render tr);
      print_newline ();
      print_level_table ~title:"messages per level (top-down)" ~column:"messages"
        (List.rev (Trace.per_level_hops tr)) tr;
      print_sum_check tr messages

(* ---------------- stats: a workload into a metrics registry ---------------- *)

(* A summary's mean, p50, p90, p99 and max as table cells. *)
let summary_cells (s : Stats.summary) =
  List.map Tables.cell_float [ s.Stats.mean; s.Stats.p50; s.Stats.p90; s.Stats.p99; s.Stats.max ]

type stats_format = Table | Json | Csv

let run_stats structure n queries updates seed m buckets format jobs pool_stats =
  validate "stats"
    (driver_checks structure ~n ~m ~buckets ()
    @ [ at_least "--queries" 0 queries; at_least "--updates" 0 updates ]);
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  (* The build, query and update phases all run inside one pool scope: the
     build fans its per-level sweeps out, the query phase fans its walks
     out, and the blocked skip-web keeps the pool for update-triggered
     rebuilds. Message counts come back in index-slotted arrays and are
     recorded sequentially, so the registry (and the json/csv dumps) are
     byte-identical for any jobs count. *)
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:(updates + 16) ~seed ~m ~buckets ?pool keys in
  let reg = Metrics.create () in
  let observe op msgs =
    Metrics.incr reg ("ops." ^ op);
    Metrics.observe_int reg (op ^ ".messages") msgs
  in
  let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:queries ~bound:(100 * n) in
  Array.iter (observe "query") (d.query_all ?pool qs);
  (* Fresh keys above the stored domain, so inserts always succeed. *)
  let fresh =
    let rng = Prng.create (seed + 3) and taken = Hashtbl.create updates in
    let rec draw () =
      let k = (100 * n) + Prng.int rng (100 * n) in
      if Hashtbl.mem taken k then draw ()
      else begin
        Hashtbl.replace taken k ();
        k
      end
    in
    Array.init updates (fun _ -> draw ())
  in
  Array.iter (fun k -> observe "insert" (d.insert k)) fresh;
  Array.iter
    (fun k ->
      match d.delete k with msgs -> observe "delete" msgs | exception Invalid_argument _ -> ())
    fresh;
  for host = 0 to Network.host_count d.net - 1 do
    Metrics.observe_int reg "host.traffic" (Network.traffic d.net host);
    Metrics.observe_int reg "host.memory" (Network.memory d.net host)
  done;
  Metrics.incr reg ~by:(Network.total_messages d.net) "network.messages";
  Metrics.incr reg ~by:(Network.sessions_started d.net) "network.sessions";
  Metrics.incr reg ~by:(Network.live_hosts d.net) "network.live_hosts";
  Metrics.incr reg ~by:(Network.stranded_memory d.net) "network.stranded_memory";
  (* Pool utilization rides along only on request: the figures are
     wall-clock and jobs-dependent, so by default the registry dump stays
     byte-identical for any jobs count. *)
  (if pool_stats then
     match pool with
     | Some p -> Pool.record_metrics p reg
     | None -> ());
  (match format with
  | Json -> print_string (Metrics.to_json reg)
  | Csv -> print_string (Metrics.to_csv reg)
  | Table ->
      Printf.printf "structure: %s\n" describe;
      Printf.printf "items: %d   hosts: %d   queries: %d   updates: %d\n\n" n
        (Network.host_count d.net) queries updates;
      let t =
        Tables.create ~title:"metrics registry"
          ~columns:[ "name"; "kind"; "value/count"; "mean"; "p50"; "p90"; "p99"; "max" ]
      in
      List.iter
        (fun name ->
          Tables.add_row t
            (match Metrics.histogram_summary reg name with
            | Some s -> name :: "histogram" :: string_of_int s.Stats.count :: summary_cells s
            | None -> [ name; "counter"; string_of_int (Metrics.counter_value reg name); ""; ""; ""; ""; "" ]))
        (Metrics.names reg);
      Tables.print t);
  0

(* ---------------- hotspots / monitor: the congestion observatory ---------------- *)

(* The printing [hotspots] and [serve] share: the level-cache banner (a
   blank line when the cache is off), the exact message-cost table and
   the live-host congestion table, [serve] adding the top-16 share. *)
let print_cache_banner (levels, k) =
  if k > 1 then
    Printf.printf "level cache: c = %d coarse levels x k = %d replicas (per-origin routing)\n\n"
      levels k
  else print_newline ()

let print_message_cost msgs =
  if msgs <> [] then begin
    let s = Stats.summarize_ints msgs in
    let t =
      Tables.create ~title:"query message cost (exact)"
        ~columns:[ "ops"; "mean"; "p50"; "p90"; "p99"; "max" ]
    in
    Tables.add_row t (string_of_int s.Stats.count :: summary_cells s);
    Tables.print t
  end

let print_congestion ?top16 c =
  let top_column, top_cell =
    match top16 with
    | None -> ([], [])
    | Some share -> ([ "top16 share" ], [ Printf.sprintf "%.4f" share ])
  in
  let t =
    Tables.create ~title:"per-host congestion (live hosts)"
      ~columns:([ "live"; "visits"; "mean"; "p50"; "p90"; "p99"; "max"; "gini" ] @ top_column)
  in
  Tables.add_row t
    ((string_of_int c.Obs.live :: string_of_int c.Obs.total_traffic
     :: List.map Tables.cell_float [ c.Obs.mean; c.Obs.p50; c.Obs.p90; c.Obs.p99; c.Obs.max ])
    @ (Printf.sprintf "%.4f" c.Obs.gini :: top_cell));
  Tables.print t

(* Where does a skewed workload's load land? Drive mixed uniform +
   Zipf(1.1) queries, recording each query's message count, then read
   the network's exact per-host counters: the hottest hosts, the
   per-host congestion percentiles and Gini, and (for the skip-web
   structures) the per-level attribution of a small traced sample
   recorded into one shared trace. *)
let run_hotspots structure n queries seed m buckets k alpha cache jobs pool_stats =
  validate "hotspots"
    (driver_checks structure ~n ~m ~buckets ~cache ()
    @ [ at_least "--queries" 0 queries; at_least "--topk" 1 k; positive "--alpha" alpha ]);
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:16 ~seed ~m ~buckets ~cache ?pool keys in
  let qs = W.mixed_queries ~s:alpha ~seed:(seed + 2) ~keys ~total:queries ~bound:(100 * n) () in
  Printf.printf "structure: %s\n" describe;
  Printf.printf "items: %d   hosts: %d   queries: %d (half uniform, half Zipf %.2f)\n" n
    (Network.host_count d.net) (Array.length qs) alpha;
  print_cache_banner cache;
  (* Attribution sample first (traced, sequential), then reset the
     workload counters so the congestion snapshot describes the main
     phase only. *)
  let tr = Trace.create () in
  let sample =
    match d.query_traced with
    | None -> 0
    | Some qt ->
        let sample = min 32 (Array.length qs) in
        for i = 0 to sample - 1 do
          ignore (qt tr qs.(i) : int option * int)
        done;
        sample
  in
  Network.reset_traffic d.net;
  let msgs = Array.map (fun q -> snd (d.query q)) qs in
  let c = Obs.congestion_of d.net in
  let t =
    Tables.create
      ~title:(Printf.sprintf "hottest hosts (exact top-%d)" k)
      ~columns:[ "host"; "visits"; "share" ]
  in
  let total = float_of_int (max 1 c.Obs.total_traffic) in
  List.iter
    (fun (h, v) ->
      let share = Printf.sprintf "%.2f%%" (100.0 *. float_of_int v /. total) in
      Tables.add_row t [ string_of_int h; string_of_int v; share ])
    (Obs.hot_hosts d.net ~k);
  Tables.print t;
  print_message_cost (Array.to_list msgs);
  print_congestion c;
  (match Trace.per_level_hops tr with
  | [] -> ()
  | levels ->
      print_level_table
        ~title:(Printf.sprintf "per-level load attribution (%d traced samples)" sample)
        ~column:"hops" levels tr);
  (* Per-slot pool utilization on request only — wall-clock figures, so
     the default output stays comparable across jobs counts. *)
  (if pool_stats then
     match pool with
     | None -> Printf.printf "pool utilization: sequential run (--jobs 1), no pool\n"
     | Some p ->
         let u = Pool.utilization p in
         let t =
           Tables.create
             ~title:(Printf.sprintf "pool utilization (%d slots)" (Array.length u.Pool.tasks))
             ~columns:[ "slot"; "tasks"; "busy s" ]
         in
         Array.iteri
           (fun i n ->
             let busy = Printf.sprintf "%.4f" u.Pool.busy_s.(i) in
             Tables.add_row t [ string_of_int i; string_of_int n; busy ])
           u.Pool.tasks;
         Tables.print t);
  0

(* Watch a workload evolve: run [epochs] query batches and push one
   value per epoch into fixed-size Series rings (mean and p99 message
   cost over the epoch's queries, total messages). Only the last
   [window] epochs are retained — the memory story of a long-lived
   monitoring loop — and the table prints exactly that window. *)
let run_monitor structure n queries epochs window seed m buckets jobs =
  validate "monitor"
    (driver_checks structure ~n ~m ~buckets ()
    @ [ at_least "--queries" 1 queries; at_least "--epochs" 1 epochs; at_least "--window" 1 window ]);
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:16 ~seed ~m ~buckets ?pool keys in
  let qs = W.mixed_queries ~seed:(seed + 2) ~keys ~total:(epochs * queries) ~bound:(100 * n) () in
  let qper = Array.length qs / epochs in
  Printf.printf "structure: %s\n" describe;
  Printf.printf "items: %d   hosts: %d   epochs: %d x %d queries   window: %d\n\n" n
    (Network.host_count d.net) epochs qper window;
  Network.reset_traffic d.net;
  let mean_s = Series.create ~window in
  let p99_s = Series.create ~window in
  let msgs_s = Series.create ~window in
  for e = 0 to epochs - 1 do
    let before = Network.total_messages d.net in
    let batch = Array.sub qs (e * qper) qper in
    let msgs = d.query_all ?pool batch in
    let s = Stats.summarize_ints (Array.to_list msgs) in
    Series.push mean_s s.Stats.mean;
    Series.push p99_s s.Stats.p99;
    Series.push msgs_s (float_of_int (Network.total_messages d.net - before))
  done;
  let t =
    Tables.create
      ~title:(Printf.sprintf "monitored window (last %d of %d epochs)" (Series.length mean_s) epochs)
      ~columns:[ "epoch"; "msgs/op mean"; "msgs/op p99"; "messages" ]
  in
  List.iteri
    (fun i (epoch, mean) ->
      let p99 = Tables.cell_float (Series.nth p99_s i) in
      let msgs = Printf.sprintf "%.0f" (Series.nth msgs_s i) in
      Tables.add_row t [ string_of_int epoch; Tables.cell_float mean; p99; msgs ])
    (Series.to_list mean_s);
  Tables.print t;
  (match Series.summary mean_s with
  | None -> ()
  | Some s ->
      Printf.printf "window msgs/op mean: %.2f (min %.2f, max %.2f over retained epochs)\n"
        s.Stats.mean s.Stats.min s.Stats.max);
  let c = Obs.congestion_of d.net in
  Printf.printf "congestion: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f  gini %.4f\n" c.Obs.p50
    c.Obs.p90 c.Obs.p99 c.Obs.max c.Obs.gini;
  Printf.printf "live hosts: %d/%d   stranded memory: %d units\n" (Network.live_hosts d.net)
    (Network.host_count d.net)
    (Network.stranded_memory d.net);
  0

(* ---------------- serve: open-loop skewed traffic ---------------- *)

module OL = Skipweb_workload.Open_loop

(* Serve an open-loop workload: Poisson arrivals at --rate, a --read-fraction
   read/write mix, queries blended half-uniform / half-Zipf(--alpha) over the
   stored keys. The whole plan is derived from the seed up front
   ([Open_loop.plan]), so a run is replayable — and comparable across
   --cache-replicas settings, which is the point: the level cache must
   flatten the congestion table without moving the msgs/op distribution. *)
let run_serve structure n ops rate read_fraction seed m buckets alpha cache jobs =
  validate "serve"
    (driver_checks structure ~n ~m ~buckets ~cache ()
    @ [
        at_least "--ops" 0 ops;
        positive "--rate" rate;
        (0.0 <= read_fraction && read_fraction <= 1.0, "--read-fraction must be in [0, 1]");
        positive "--alpha" alpha;
      ]);
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let spec =
    { OL.seed = seed + 0x5e0; ops; rate; read_fraction; zipf_share = 0.5; zipf_s = alpha; bound }
  in
  let events = OL.plan spec ~keys in
  let counts = OL.counts events in
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:(counts.OL.inserts + 16) ~seed ~m ~buckets ~cache ?pool keys in
  Printf.printf "structure: %s\n" describe;
  Printf.printf
    "items: %d   hosts: %d   ops: %d (%d queries / %d inserts / %d removes)\n\
     open loop: rate %.0f ops/s, %.0f simulated seconds; queries half uniform, half Zipf %.2f\n"
    n (Network.host_count d.net) ops counts.OL.queries counts.OL.inserts counts.OL.removes rate
    (OL.duration events) alpha;
  print_cache_banner cache;
  Network.reset_traffic d.net;
  let msgs = ref [] in
  Array.iter
    (fun e ->
      match e.OL.op with
      | OL.Query q -> msgs := snd (d.query q) :: !msgs
      | OL.Insert k -> ignore (d.insert k : int)
      | OL.Remove k -> ignore (try d.delete k with Invalid_argument _ -> 0))
    events;
  print_message_cost !msgs;
  print_congestion ~top16:(Obs.top_share d.net ~m:16) (Obs.congestion_of d.net);
  Printf.printf "total messages: %d\n" (Network.total_messages d.net);
  0

(* ---------------- churn: kill/rejoin epochs + self-repair ---------------- *)

(* Drive failure epochs against a replicated skip-web through the
   roster's epoch loop: each epoch kills [fails] live hosts, fans a query
   batch out over the pool (a walk whose every replica is dead records a
   failed query instead of aborting the run), runs one repair pass, then
   revives the victims. Only the skip-webs support replication and
   repair; the overlay baselines have no failure story. *)
let run_churn structure n queries seed m r epochs fails jobs =
  let fails = match fails with Some f -> f | None -> max 1 (r - 1) in
  (* Every epoch's kills must leave r live hosts for the replicas:
     anything else cannot run to completion. *)
  let hosts = host_count structure ~n ~pad:0 ~buckets:None in
  validate "churn"
    ([
       (r >= 1 && r <= hosts, Printf.sprintf "--r must be in [1, H] (H = %d hosts)" hosts);
       ( fails >= 0 && fails <= hosts - r,
         Printf.sprintf "--fails must be in [0, H - R] (H - R = %d)" (hosts - r) );
       at_least "--epochs" 1 epochs;
       at_least "--queries" 1 queries;
     ]
    @ driver_checks structure ~n ~m ~buckets:None ());
  let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
  Pool.with_pool ~jobs @@ fun pool ->
  let d, describe = driver structure ~pad:0 ~seed ~m ~buckets:None ~r ?pool keys in
  if Option.is_none d.R.repair then begin
    prerr_endline "churn: only the skip-webs support replication and repair";
    1
  end
  else begin
    let net = d.net in
    Printf.printf "structure: %s\n" describe;
    Printf.printf "items: %d   hosts: %d   epochs: %d   failures/epoch: %d   queries/epoch: %d\n\n"
      n (Network.host_count net) epochs fails queries;
    let qs = W.query_mix ~seed:(seed + 2) ~keys ~n:(epochs * queries) ~bound:(100 * n) in
    let rows =
      R.churn ?pool d ~epochs ~fails ~coins:(Prng.create (seed + 0xc41))
        ~krng:(Prng.create (seed + 0x4b1)) qs
    in
    let t =
      Tables.create ~title:"churn epochs"
        ~columns:[ "epoch"; "killed"; "ok"; "failed"; "repair msgs"; "lost"; "stranded" ]
    in
    List.iteri
      (fun e (ep : R.epoch) ->
        Tables.add_row t
          (string_of_int e
          :: String.concat "," (List.map string_of_int ep.killed)
          :: List.map string_of_int
               [ ep.ok; ep.failed; ep.repair.Placement.messages; ep.repair.lost; ep.stranded ]))
      rows;
    Tables.print t;
    let total f = List.fold_left (fun acc ep -> acc + f ep) 0 rows in
    let ok = total (fun ep -> ep.ok)
    and failed = total (fun ep -> ep.failed)
    and lost = total (fun ep -> ep.repair.lost) in
    Printf.printf "query success rate: %.4f (%d/%d)\n"
      (float_of_int ok /. float_of_int (epochs * queries))
      ok (epochs * queries);
    Printf.printf "live hosts: %d/%d   stranded memory: %d units\n" (Network.live_hosts net)
      (Network.host_count net) (Network.stranded_memory net);
    if r >= 2 && fails <= r - 1 && (failed > 0 || lost > 0) then begin
      Printf.printf "FAIL: r = %d with %d failures/epoch must lose nothing (failed %d, lost %d)\n"
        r fails failed lost;
      1
    end
    else 0
  end

(* ---------------- range / knn / prefix: the multi-d scan surfaces ---------------- *)

module HP2 = H.Make (I.Points2d)
module HStr = H.Make (I.Strings)
module Point = Skipweb_geom.Point

(* Each subcommand builds the multi-dimensional skip-web under the --jobs
   pool, runs one detailed scan (printed in full), then fans a seeded
   sweep of --queries scans over the pool through [scan_batch]. No wall
   clock is printed: every line of output is bit-identical for any
   --jobs value. *)

let scan_checks ~n ~queries = [ at_least "-n" 1 n; at_least "--queries" 0 queries ]

let in_unit_square flag (x, y) =
  (0.0 <= x && x < 1.0 && 0.0 <= y && y < 1.0, flag ^ " coordinates must be in [0, 1)")

(* The tail the three scan subcommands share: the detailed scan's cost
   line, then the sweep's totals over its [(answer, stats)] results. [hits]
   counts an answer's matches; k-nn answers have no count, and their line
   leaves it out. *)
let print_sweep ~detail:(messages, ranges_visited) ~queries ~what ?hits ~msgs res =
  Printf.printf "messages=%d ranges_visited=%d\n" messages ranges_visited;
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 res in
  let m = total msgs in
  Printf.printf "sweep: %d %s: %s%d messages (%.1f msgs/scan)\n" queries what
    (match hits with Some h -> Printf.sprintf "%d total hits, " (total h) | None -> "")
    m
    (float_of_int m /. Float.max 1e-9 (float_of_int queries));
  0

let build_points ~n ~seed ~pool =
  let pts = W.uniform_points ~seed ~n ~dim:2 in
  let net = Network.create ~hosts:n in
  let h = HP2.build ~net ~seed ?pool pts in
  Printf.printf "quadtree-2d skip-web: %d stored points, %d hosts\n" (HP2.size h)
    (Network.host_count net);
  h

let run_range n queries seed lo hi limit jobs =
  validate "range"
    (scan_checks ~n ~queries
    @ [
        at_least "--limit" 0 limit;
        in_unit_square "--lo" lo;
        in_unit_square "--hi" hi;
        (fst lo <= fst hi && snd lo <= snd hi, "--lo must not exceed --hi");
      ]);
  Pool.with_pool ~jobs (fun pool ->
      let h = build_points ~n ~seed ~pool in
      let lo = Point.create [ fst lo; snd lo ] and hi = Point.create [ fst hi; snd hi ] in
      let answer, stats =
        HP2.scan h ~rng:(Prng.create (seed + 1)) (I.Box { lo; hi; limit })
      in
      (match answer with
      | I.Box_hits { count; sample } ->
          Printf.printf "box %s .. %s (limit %d): %d points\n" (Point.to_string lo)
            (Point.to_string hi) limit count;
          List.iter (fun p -> Printf.printf "  %s\n" (Point.to_string p)) sample
      | I.Knn_hits _ -> assert false);
      (* The sweep: side-0.15 boxes at seeded uniform corners. *)
      let corners = W.uniform_query_points ~seed:(seed + 3) ~n:queries ~dim:2 in
      let scans =
        Array.map
          (fun (c : Point.t) ->
            let x = Float.min c.(0) 0.8 and y = Float.min c.(1) 0.8 in
            I.Box
              { lo = Point.create [ x; y ]; hi = Point.create [ x +. 0.15; y +. 0.15 ]; limit })
          corners
      in
      print_sweep
        ~detail:(stats.HP2.messages, stats.HP2.ranges_visited)
        ~queries ~what:"boxes (side 0.15)"
        ~hits:(function I.Box_hits { count; _ }, _ -> count | I.Knn_hits _, _ -> 0)
        ~msgs:(fun (_, s) -> s.HP2.messages)
        (HP2.scan_batch ?pool h ~rng:(Prng.create (seed + 4)) scans))

let run_knn n queries seed center k jobs =
  validate "knn"
    (scan_checks ~n ~queries @ [ in_unit_square "--at" center; at_least "-k" 1 k ]);
  Pool.with_pool ~jobs (fun pool ->
      let h = build_points ~n ~seed ~pool in
      let c = Point.create [ fst center; snd center ] in
      let answer, stats = HP2.scan h ~rng:(Prng.create (seed + 1)) (I.Knn { center = c; k }) in
      (match answer with
      | I.Knn_hits hits ->
          Printf.printf "%d nearest to %s:\n" k (Point.to_string c);
          List.iteri
            (fun i (p, d) -> Printf.printf "  %2d. %s  dist=%.6f\n" (i + 1) (Point.to_string p) d)
            hits
      | I.Box_hits _ -> assert false);
      let centers = W.uniform_query_points ~seed:(seed + 3) ~n:queries ~dim:2 in
      let scans = Array.map (fun c -> I.Knn { center = c; k }) centers in
      print_sweep
        ~detail:(stats.HP2.messages, stats.HP2.ranges_visited)
        ~queries
        ~what:(Printf.sprintf "k-nn scans (k=%d)" k)
        ~msgs:(fun (_, s) -> s.HP2.messages)
        (HP2.scan_batch ?pool h ~rng:(Prng.create (seed + 4)) scans))

let run_prefix n queries seed prefix limit jobs =
  validate "prefix" (scan_checks ~n ~queries @ [ at_least "--limit" 0 limit ]);
  Pool.with_pool ~jobs (fun pool ->
      let publishers = max 4 (n / 500) in
      let keys = W.isbn_strings ~seed ~n ~publishers in
      let net = Network.create ~hosts:n in
      let h = HStr.build ~net ~seed ?pool keys in
      Printf.printf "trie skip-web: %d stored ISBNs (%d publishers), %d hosts\n" (HStr.size h)
        publishers (Network.host_count net);
      let answer, stats =
        HStr.scan h ~rng:(Prng.create (seed + 1)) { I.prefix; scan_limit = limit }
      in
      Printf.printf "prefix %S (limit %d): %d strings\n" prefix limit answer.I.total;
      List.iter (fun s -> Printf.printf "  %s\n" s) answer.I.strings;
      (* The sweep draws publisher prefixes from the isbn generator's own
         Zipf-ish popularity law, so popular publishers are scanned more. *)
      let rng = Prng.create (seed + 3) in
      let scans =
        Array.init queries (fun _ ->
            let r = Prng.float rng 1.0 in
            let p = int_of_float (float_of_int publishers *. r *. r) in
            { I.prefix = Printf.sprintf "978-%d-" p; scan_limit = limit })
      in
      print_sweep
        ~detail:(stats.HStr.messages, stats.HStr.ranges_visited)
        ~queries ~what:"publisher prefixes"
        ~hits:(fun ((a : I.trie_scan_answer), _) -> a.I.total)
        ~msgs:(fun (_, s) -> s.HStr.messages)
        (HStr.scan_batch ?pool h ~rng:(Prng.create (seed + 4)) scans))

(* ---------------- command line ---------------- *)

open Cmdliner

let structure_arg =
  let names = String.concat ", " (List.map fst R.entries) in
  Arg.(value & opt (enum R.entries) R.Skipweb & info [ "structure"; "s" ] ~docv:"NAME" ~doc:("Structure to drive: $(docv) is one of " ^ names ^ "."))

let n_arg = Arg.(value & opt int 1024 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of stored keys.")
let queries_arg = Arg.(value & opt int 200 & info [ "queries"; "q" ] ~docv:"Q" ~doc:"Number of queries.")
let updates_arg = Arg.(value & opt int 50 & info [ "updates"; "u" ] ~docv:"U" ~doc:"Number of updates.")
let seed_arg = Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
let m_arg = Arg.(value & opt (some int) None & info [ "m" ] ~docv:"M" ~doc:"Per-host memory target for skip-webs (default 4 log n).")
let buckets_arg = Arg.(value & opt (some int) None & info [ "buckets" ] ~docv:"H" ~doc:"Host count for bucket structures (default n / log n).")
let jobs_arg =
  (* Every subcommand's jobs count is validated here: values past the
     hardware's recommended domain count are clamped with a stderr
     warning instead of silently oversubscribing. *)
  let raw = Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc:"Domains for the query phase and the write paths (bulk load, update rebuilds; skip-web structures only; 1 = sequential). Measured costs are identical for any value. Values above the recommended domain count are clamped with a warning.") in
  Term.(const (fun j -> Pool.clamp_jobs j) $ raw)

let load_cmd =
  let doc = "Bulk-load a structure and report its storage footprint and build messages. With --jobs, the skip-web builds fan their per-level sweeps over a domain pool; the output is bit-identical for any jobs count." in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run_load $ structure_arg $ n_arg $ seed_arg $ m_arg $ buckets_arg $ jobs_arg)

let at_arg =
  Arg.(value & opt (some int) None & info [ "at" ] ~docv:"KEY" ~doc:"Query point to trace (default 50n, an interior probe).")

let trace_cmd =
  let doc = "Trace one query and print its hop tree and per-level message breakdown." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run_trace $ structure_arg $ n_arg $ seed_arg $ m_arg $ at_arg)

let format_arg =
  let fconv = Arg.enum [ ("table", Table); ("json", Json); ("csv", Csv) ] in
  Arg.(value & opt fconv Table & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output format: table, json or csv.")

let r_arg =
  Arg.(value & opt int 2 & info [ "r"; "replicas" ] ~docv:"R" ~doc:"Replication factor: copies of every range, on distinct hosts (skip-web structures only).")

let epochs_arg =
  Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"E" ~doc:"Number of kill/repair/rejoin epochs.")

let fails_arg =
  Arg.(value & opt (some int) None & info [ "fails" ] ~docv:"F" ~doc:"Hosts killed per epoch (default max 1 (R-1): the most the replication factor is guaranteed to survive).")

let churn_cmd =
  let doc = "Drive kill/repair/rejoin epochs against a replicated skip-web and report per-epoch availability and repair cost. With --r 2 and the default single failure per epoch, the success rate must be 1.0 (exit 1 otherwise)." in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(const run_churn $ structure_arg $ n_arg $ queries_arg $ seed_arg $ m_arg $ r_arg $ epochs_arg $ fails_arg $ jobs_arg)

let pool_stats_arg =
  Arg.(value & flag & info [ "pool-stats" ] ~doc:"Include per-slot domain-pool utilization (tasks claimed, busy wall-clock) in the output. Off by default: the figures are wall-clock and jobs-dependent, so they would break byte-identical-across-jobs comparisons of the export.")

let stats_cmd =
  let doc = "Run a query/update workload and dump the metrics registry (messages-per-op distributions, per-host traffic and memory histograms)." in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run_stats $ structure_arg $ n_arg $ queries_arg $ updates_arg $ seed_arg $ m_arg $ buckets_arg $ format_arg $ jobs_arg $ pool_stats_arg)

let topk_arg =
  Arg.(value & opt int 10 & info [ "k"; "top"; "topk" ] ~docv:"K" ~doc:"List the $(docv) busiest hosts, exactly, from the per-host traffic counters.")

let alpha_arg =
  Arg.(value & opt float 1.1 & info [ "alpha" ] ~docv:"S" ~doc:"Zipf exponent for the skewed half of the query mix (higher = hotter head).")

let cache_levels_arg =
  Arg.(value & opt int 4 & info [ "cache-levels" ] ~docv:"C" ~doc:"Coarse levels covered by the read-path level cache (skip-web structures only; no effect while --cache-replicas is 1).")

let cache_replicas_arg =
  Arg.(value & opt int 1 & info [ "cache-replicas" ] ~docv:"K" ~doc:"Replicas per cached coarse range, routed per query origin (skip-web structures only; 1 = cache off, byte-identical to the uncached code).")

let cache_term = Term.(const (fun c k -> (c, k)) $ cache_levels_arg $ cache_replicas_arg)

let hotspots_cmd =
  let doc = "Drive mixed uniform + Zipf(--alpha) query traffic and report the exact top-k hottest hosts, per-host congestion percentiles and Gini, the exact message-cost distribution, and (skip-web structures) the per-level load attribution of a traced sample." in
  Cmd.v (Cmd.info "hotspots" ~doc)
    Term.(const run_hotspots $ structure_arg $ n_arg $ queries_arg $ seed_arg $ m_arg $ buckets_arg $ topk_arg $ alpha_arg $ cache_term $ jobs_arg $ pool_stats_arg)

let ops_arg =
  Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations in the open-loop plan.")

let rate_arg =
  Arg.(value & opt float 1000.0 & info [ "rate" ] ~docv:"R" ~doc:"Poisson arrival rate (ops per simulated second).")

let read_fraction_arg =
  Arg.(value & opt float 0.9 & info [ "read-fraction" ] ~docv:"F" ~doc:"Fraction of operations that are queries; the rest split evenly between inserts of fresh keys and removes of live ones.")

let serve_cmd =
  let doc = "Serve an open-loop workload (Poisson arrivals, Zipf + uniform query blend, read/write mix) replayed from its seed, and report the exact per-op message distribution and the per-host congestion table. With --cache-replicas > 1 the skip-web structures spread each coarse level over k per-origin replicas — the congestion Gini and top-16 share must fall while msgs/op stays put." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ structure_arg $ n_arg $ ops_arg $ rate_arg $ read_fraction_arg $ seed_arg $ m_arg $ buckets_arg $ alpha_arg $ cache_term $ jobs_arg)

let window_arg =
  Arg.(value & opt int 8 & info [ "window"; "w" ] ~docv:"W" ~doc:"Time-series window: only the last $(docv) epochs are retained (older ones roll off the ring).")

let monitor_cmd =
  let doc = "Run epoch after epoch of queries and watch the workload through fixed-size time-series rings: per-epoch mean and p99 message cost (exact over each epoch's queries) and message totals, with only the last W epochs retained." in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(const run_monitor $ structure_arg $ n_arg $ queries_arg $ epochs_arg $ window_arg $ seed_arg $ m_arg $ buckets_arg $ jobs_arg)

let floatpair_conv = Arg.(pair ~sep:',' float float)

let lo_arg =
  Arg.(value & opt floatpair_conv (0.25, 0.25) & info [ "lo" ] ~docv:"X,Y" ~doc:"Lower corner of the detailed box; coordinates in [0,1).")

let hi_arg =
  Arg.(value & opt floatpair_conv (0.75, 0.75) & info [ "hi" ] ~docv:"X,Y" ~doc:"Upper corner of the detailed box; coordinates in [0,1).")

let limit_arg =
  Arg.(value & opt int 10 & info [ "limit" ] ~docv:"L" ~doc:"Sample cap: at most $(docv) matches are materialized per scan (counts stay exact).")

let range_cmd =
  let doc = "Axis-aligned range scans on the 2-d quadtree skip-web: one detailed box, then a seeded sweep of --queries boxes fanned over --jobs domains through scan_batch. Every output line is bit-identical for any jobs count." in
  Cmd.v (Cmd.info "range" ~doc)
    Term.(const run_range $ n_arg $ queries_arg $ seed_arg $ lo_arg $ hi_arg $ limit_arg $ jobs_arg)

let knn_at_arg =
  Arg.(value & opt floatpair_conv (0.5, 0.5) & info [ "at" ] ~docv:"X,Y" ~doc:"Query point for the detailed k-nn scan; coordinates in [0,1).")

let k_arg = Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Neighbors per k-nn scan.")

let knn_cmd =
  let doc = "Approximate k-nearest-neighbor scans on the 2-d quadtree skip-web: one detailed scan with distances, then a seeded sweep of --queries scans fanned over --jobs domains. Every output line is bit-identical for any jobs count." in
  Cmd.v (Cmd.info "knn" ~doc)
    Term.(const run_knn $ n_arg $ queries_arg $ seed_arg $ knn_at_arg $ k_arg $ jobs_arg)

let prefix_arg =
  Arg.(value & opt string "978-0-" & info [ "prefix" ] ~docv:"P" ~doc:"Prefix for the detailed scan. Stored keys look like 978-<publisher>-<title>.")

let prefix_cmd =
  let doc = "Prefix scans on the trie skip-web over ISBN-shaped strings: one detailed scan, then a seeded sweep of --queries publisher prefixes fanned over --jobs domains. Every output line is bit-identical for any jobs count." in
  Cmd.v (Cmd.info "prefix" ~doc)
    Term.(const run_prefix $ n_arg $ queries_arg $ seed_arg $ prefix_arg $ limit_arg $ jobs_arg)

let main =
  let doc = "Drive the skip-webs reproduction's distributed structures." in
  Cmd.group
    (Cmd.info "skipweb_cli" ~version:"1.0" ~doc)
    [
      load_cmd; trace_cmd; stats_cmd; churn_cmd; hotspots_cmd; serve_cmd; monitor_cmd; range_cmd;
      knn_cmd; prefix_cmd;
    ]

let () = exit (Cmd.eval' main)
