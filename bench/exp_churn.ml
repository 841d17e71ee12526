(* E17: availability and self-repair under sustained host churn.

   The paper assumes a static host set; the failure model (Network.kill /
   revive, replication factor r, repair passes) is this repository's
   extension, motivated by the rainbow-skip-graph line of work on
   fault-tolerant overlays. This experiment measures what that machinery
   buys: drive kill/rejoin epochs against both skip-web structures under
   mixed query traffic (half uniform probes, half Zipf(1.1) over stored
   keys) and record, per replication factor r:

     - query success rate while hosts are down (a failed walk — every
       replica of a needed range dead — raises Host_dead and is counted,
       not crashed on);
     - per-epoch availability percentiles;
     - the repair bill: copies re-homed, steal messages, copies lost
       (with f <= r - 1 failures per epoch, lost must be 0 and the
       success rate must be exactly 1.0 — replica copies of a range
       always sit on distinct hosts, so some copy survives every epoch);
     - stranded memory at its peak (dead hosts' charges before repair).

   Each epoch: kill f = max 1 (r - 1) live hosts, run a mid-failure query
   batch, run one repair pass, then revive the killed hosts (a rejoin —
   they come back empty and re-enter placement on the next repair or
   rebuild). r = 1 exercises graceful degradation: queries whose only
   copy died fail and are recorded, and the run still completes.

   The query batches fan out over the --jobs pool. Query i draws its
   coins from [Prng.stream] i (a pure function of the seed and i), the
   kill sequence and repair passes are sequential, and per-query outcomes
   land in an index-slotted array — so BENCH_churn.json is a function of
   the seed and sizes, identical for any jobs count. Failover reads and
   repair are timed by perf/'s [churn-replicated] workload
   ([ops_per_s], [hierarchy.repair_s]).

   CI's smoke leg asserts the r = 2 contract (success rate 1.0, zero
   lost) from the JSON — and so does this experiment itself, below. *)

module Network = Skipweb_net.Network
module R = Skipweb_roster.Roster
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Series = Skipweb_util.Series
module C = Bench_common

type row = {
  structure : string;
  n : int;
  hosts : int;
  r : int;
  epochs : int;
  fails_per_epoch : int;
  queries_per_epoch : int;
  failed_queries : int;
  success_rate : float;
  avail_min : float;
  avail_p50 : float;
  avail_p90 : float;
  repair_scanned : int;
  repair_repaired : int;
  repair_messages : int;
  repair_lost : int;
  mean_query_msgs : float;  (* over successful queries *)
  stranded_peak : int;
  timeline : string;  (* per-epoch Series, as JSON *)
}

(* One row: [entry] over n keys on [hosts] hosts at replication [r],
   driven through the roster's epoch loop, its query coins and its kills
   drawn from streams seeded [seed + coins] and [seed + kills + r]. *)
let row ~pool ~quick ~seed ~structure ~entry ?m ~n ~coins ~kills r =
  let hosts = if quick then 48 else 96 in
  let epochs = if quick then 6 else 12 in
  let qper = if quick then 240 else 500 in
  let fails = max 1 (r - 1) in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let d = R.build entry ~net:(Network.create ~hosts) ~seed ?m ~r ?pool keys in
  let qs = W.mixed_queries ~seed ~keys ~total:(epochs * qper) ~bound () in
  let eps =
    R.churn ?pool d ~epochs ~fails
      ~coins:(Prng.create (seed + coins))
      ~krng:(Prng.create (seed + kills + r))
      qs
  in
  (* Per-epoch monitoring timeline: one Series per signal, window sized
     to the run so the full history is retained here (a long-lived
     deployment would pick a fixed window and let old epochs roll off —
     that is the point of the ring). *)
  let series f =
    let s = Series.create ~window:epochs in
    List.iter (fun ep -> Series.push s (f ep)) eps;
    s
  in
  let rates = List.map (fun (ep : R.epoch) -> float_of_int ep.ok /. float_of_int qper) eps in
  let total f = List.fold_left (fun acc ep -> acc + f ep) 0 eps in
  let failed = total (fun ep -> ep.failed) in
  let succ = (epochs * qper) - failed in
  let rstats = Stats.summarize rates in
  {
    structure;
    n;
    hosts;
    r;
    epochs;
    fails_per_epoch = fails;
    queries_per_epoch = qper;
    failed_queries = failed;
    success_rate = float_of_int succ /. float_of_int (epochs * qper);
    avail_min = List.fold_left min 1.0 rates;
    avail_p50 = rstats.Stats.p50;
    avail_p90 = rstats.Stats.p90;
    repair_scanned = total (fun ep -> ep.repair.scanned);
    repair_repaired = total (fun ep -> ep.repair.repaired);
    repair_messages = total (fun ep -> ep.repair.messages);
    repair_lost = total (fun ep -> ep.repair.lost);
    mean_query_msgs =
      (if succ = 0 then 0.0 else float_of_int (total (fun ep -> ep.ok_messages)) /. float_of_int succ);
    stranded_peak = List.fold_left (fun acc (ep : R.epoch) -> max acc ep.stranded) 0 eps;
    timeline =
      Printf.sprintf "{\"availability\": %s, \"repair_messages\": %s, \"stranded\": %s}"
        (Series.to_json (series (fun ep -> float_of_int ep.ok /. float_of_int qper)))
        (Series.to_json (series (fun ep -> float_of_int ep.repair.messages)))
        (Series.to_json (series (fun ep -> float_of_int ep.stranded)));
  }

let json_of_rows rows =
  let row_json r =
    Printf.sprintf
      "    {\"structure\": \"%s\", \"n\": %d, \"hosts\": %d, \"r\": %d, \"epochs\": %d, \
       \"fails_per_epoch\": %d, \"queries\": %d, \"failed\": %d, \"success_rate\": %.6f,\n\
      \     \"availability\": {\"min\": %.6f, \"p50\": %.6f, \"p90\": %.6f},\n\
      \     \"repair\": {\"scanned\": %d, \"repaired\": %d, \"messages\": %d, \"lost\": %d, \
       \"messages_per_epoch\": %.1f},\n\
      \     \"query_messages_mean\": %.2f, \"stranded_peak\": %d,\n\
      \     \"timeline\": %s}"
      r.structure r.n r.hosts r.r r.epochs r.fails_per_epoch
      (r.epochs * r.queries_per_epoch)
      r.failed_queries r.success_rate r.avail_min r.avail_p50 r.avail_p90 r.repair_scanned
      r.repair_repaired r.repair_messages r.repair_lost
      (float_of_int r.repair_messages /. float_of_int r.epochs)
      r.mean_query_msgs r.stranded_peak r.timeline
  in
  Printf.sprintf
    "{\n  \"experiment\": \"churn\",\n  \"workload\": \"kill/rejoin epochs (f = max 1 (r-1) \
     failures each) over mixed uniform + Zipf(1.1) query traffic, one repair pass per \
     epoch\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map row_json rows))

let run (cfg : C.config) =
  C.section "Host churn, replication and self-repair (E17)";
  let seed = List.hd cfg.C.seeds in
  let rs = if cfg.C.quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let rows =
    C.with_pool cfg (fun pool ->
        List.concat_map
          (fun r ->
            let quick = cfg.C.quick in
            [
              row ~pool ~quick ~seed ~structure:"hierarchy" ~entry:R.Skipweb_generic
                ~n:(if quick then 1500 else 4000) ~coins:0xc01 ~kills:0x5e11 r;
              row ~pool ~quick ~seed ~structure:"blocked1d" ~entry:R.Skipweb ~m:16
                ~n:(if quick then 1200 else 3000) ~coins:0xc02 ~kills:0x5e22 r;
            ])
          rs)
  in
  let tbl =
    Skipweb_util.Tables.create
      ~title:
        (Printf.sprintf "availability under churn: f = max 1 (r-1) failures/epoch (%d job(s))"
           cfg.C.jobs)
      ~columns:
        [
          "structure"; "r"; "f"; "epochs"; "queries"; "failed"; "success"; "avail min";
          "repair msgs"; "lost"; "mean q msgs"; "stranded pk";
        ]
  in
  List.iter
    (fun r ->
      Skipweb_util.Tables.add_row tbl
        [
          r.structure;
          string_of_int r.r;
          string_of_int r.fails_per_epoch;
          string_of_int r.epochs;
          string_of_int (r.epochs * r.queries_per_epoch);
          string_of_int r.failed_queries;
          Printf.sprintf "%.4f" r.success_rate;
          Printf.sprintf "%.4f" r.avail_min;
          string_of_int r.repair_messages;
          string_of_int r.repair_lost;
          Printf.sprintf "%.2f" r.mean_query_msgs;
          string_of_int r.stranded_peak;
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  (* The replication contract, asserted here exactly as CI's smoke leg
     asserts it from the JSON: with r >= 2 and at most r - 1 failures per
     epoch, every query must have found a live replica and no copy may
     have been lost. *)
  List.iter
    (fun r ->
      if r.r >= 2 && r.fails_per_epoch <= r.r - 1 then begin
        if r.success_rate < 1.0 then
          failwith
            (Printf.sprintf "E17: %s r=%d lost %d queries under %d failures/epoch" r.structure
               r.r r.failed_queries r.fails_per_epoch);
        if r.repair_lost > 0 then
          failwith
            (Printf.sprintf "E17: %s r=%d lost %d copies under %d failures/epoch" r.structure
               r.r r.repair_lost r.fails_per_epoch)
      end)
    rows;
  Printf.printf "replication contract (r >= 2, f <= r-1 => availability 1.0, nothing lost): OK\n";
  C.write_json ~file:"BENCH_churn.json" (json_of_rows rows)
