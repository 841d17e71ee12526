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
module H = Skipweb_core.Hierarchy
module B1 = Skipweb_core.Blocked1d
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Series = Skipweb_util.Series
module DPool = Skipweb_util.Pool
module C = Bench_common

module HInt = H.Make (I.Ints)

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

(* Kill [fails] distinct live hosts, drawn from [krng]; never the last
   live host. Returns the victims (for the rejoin). *)
let kill_some net krng fails =
  let hosts = Network.host_count net in
  let killed = ref [] in
  while List.length !killed < fails do
    let h = Prng.int krng hosts in
    if Network.alive net h && Network.live_hosts net > 1 then begin
      Network.kill net h;
      killed := h :: !killed
    end
  done;
  !killed

(* The epoch loop, shared by both structures. [query_one rng q] runs one
   query and returns its message count (raising Network.Host_dead when
   every replica of a needed range is down); [repair_fn ()] runs one
   repair pass and returns (scanned, repaired, messages, lost). *)
let drive ~pool ~net ~query_one ~repair_fn ~qs ~coins ~epochs ~qper ~fails ~kseed =
  let krng = Prng.create kseed in
  let msgs_of = Array.make (epochs * qper) 0 in
  let sc = ref 0 and rp = ref 0 and ms = ref 0 and lo_ = ref 0 in
  let stranded_peak = ref 0 in
  let rates = ref [] in
  (* Per-epoch monitoring timeline: one Series per signal, window sized
     to the run so the full history is retained here (a long-lived
     deployment would pick a fixed window and let old epochs roll off —
     that is the point of the ring). *)
  let avail_s = Series.create ~window:epochs in
  let repair_s = Series.create ~window:epochs in
  let stranded_s = Series.create ~window:epochs in
  for e = 0 to epochs - 1 do
    let killed = kill_some net krng fails in
    let stranded_now = Network.stranded_memory net in
    stranded_peak := max !stranded_peak stranded_now;
    Series.push stranded_s (float_of_int stranded_now);
    let lo = e * qper in
    let one i =
      msgs_of.(i) <- (try query_one (Prng.stream coins i) qs.(i) with Network.Host_dead _ -> -1)
    in
    (match pool with
    | None -> for i = lo to lo + qper - 1 do one i done
    | Some p -> DPool.parallel_for p ~lo ~hi:(lo + qper) one);
    let ok = ref 0 in
    for i = lo to lo + qper - 1 do
      if msgs_of.(i) >= 0 then incr ok
    done;
    let rate = float_of_int !ok /. float_of_int qper in
    rates := rate :: !rates;
    Series.push avail_s rate;
    let s, r, m, l = repair_fn () in
    Series.push repair_s (float_of_int m);
    sc := !sc + s;
    rp := !rp + r;
    ms := !ms + m;
    lo_ := !lo_ + l;
    List.iter (Network.revive net) killed
  done;
  let timeline =
    Printf.sprintf "{\"availability\": %s, \"repair_messages\": %s, \"stranded\": %s}"
      (Series.to_json avail_s) (Series.to_json repair_s) (Series.to_json stranded_s)
  in
  let failed = Array.fold_left (fun acc m -> if m < 0 then acc + 1 else acc) 0 msgs_of in
  let succ_msgs =
    Array.fold_left (fun acc m -> if m >= 0 then acc +. float_of_int m else acc) 0.0 msgs_of
  in
  let succ = (epochs * qper) - failed in
  ( msgs_of,
    List.rev !rates,
    !sc,
    !rp,
    !ms,
    !lo_,
    !stranded_peak,
    failed,
    succ,
    succ_msgs,
    timeline )

let finish_row ~structure ~n ~hosts ~r ~epochs ~qper ~fails
    (_, rates, sc, rp, ms, lo_, stranded_peak, failed, succ, succ_msgs, timeline) =
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
    repair_scanned = sc;
    repair_repaired = rp;
    repair_messages = ms;
    repair_lost = lo_;
    mean_query_msgs = (if succ = 0 then 0.0 else succ_msgs /. float_of_int succ);
    stranded_peak;
    timeline;
  }

let hierarchy_row ~pool ~quick ~seed r =
  let n = if quick then 1500 else 4000 in
  let hosts = if quick then 48 else 96 in
  let epochs = if quick then 6 else 12 in
  let qper = if quick then 240 else 500 in
  let fails = max 1 (r - 1) in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts in
  let h = HInt.build ~net ~seed ~r ?pool keys in
  let qs = W.mixed_queries ~seed ~keys ~total:(epochs * qper) ~bound () in
  let coins = Prng.create (seed + 0xc01) in
  let query_one rng q =
    let _, stats = HInt.query h ~rng q in
    stats.HInt.messages
  in
  let repair_fn () =
    let s : HInt.repair_stats = HInt.repair h in
    (s.HInt.scanned, s.HInt.repaired, s.HInt.messages, s.HInt.lost)
  in
  drive ~pool ~net ~query_one ~repair_fn ~qs ~coins ~epochs ~qper ~fails
    ~kseed:(seed + 0x5e11 + r)
  |> finish_row ~structure:"hierarchy" ~n ~hosts ~r ~epochs ~qper ~fails

let blocked_row ~pool ~quick ~seed r =
  let n = if quick then 1200 else 3000 in
  let hosts = if quick then 48 else 96 in
  let epochs = if quick then 6 else 12 in
  let qper = if quick then 240 else 500 in
  let fails = max 1 (r - 1) in
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts in
  let b = B1.build ~net ~seed ~m:16 ~r ?pool keys in
  let qs = W.mixed_queries ~seed ~keys ~total:(epochs * qper) ~bound () in
  let coins = Prng.create (seed + 0xc02) in
  let query_one rng q = (B1.query b ~rng q).B1.messages in
  let repair_fn () =
    let s : B1.repair_stats = B1.repair b in
    (s.B1.scanned, s.B1.repaired, s.B1.messages, s.B1.lost)
  in
  drive ~pool ~net ~query_one ~repair_fn ~qs ~coins ~epochs ~qper ~fails
    ~kseed:(seed + 0x5e22 + r)
  |> finish_row ~structure:"blocked1d" ~n ~hosts ~r ~epochs ~qper ~fails

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
            [
              hierarchy_row ~pool ~quick:cfg.C.quick ~seed r;
              blocked_row ~pool ~quick:cfg.C.quick ~seed r;
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
