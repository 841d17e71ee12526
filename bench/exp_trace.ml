(* E16b: per-level cost attribution via session traces.

   Theorem 2 prices a query at O(log n) messages, and the set-halving
   lemmas promise O(1) expected conflicts per refinement — but both are
   per-level statements, and the aggregate counters of Network cannot show
   *where* in the hierarchy a deviation happens. This experiment traces
   every query, decomposes the message bill into a messages-per-level
   matrix, histograms the per-step conflict-set sizes, and summarizes the
   per-host traffic distribution, for the sorted-list and quadtree
   instances. Results go to BENCH_trace.json so later perf PRs get
   before/after per-level evidence for free.

   It also enforces the observability contract: an identical seeded
   workload run with and without tracing must produce the same
   Network.total_messages. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module C = Bench_common

type row = {
  instance : string;
  n : int;
  ops : int;
  msgs : Stats.summary;  (* messages per op *)
  per_level : (int * int) list;  (* level -> total messages over all ops *)
  conflicts : Stats.summary;  (* conflict-set size per refinement step *)
  traffic : Stats.summary;  (* per-host session visits *)
}

module Measure (S : Skipweb_core.Range_structure.S) = struct
  module HS = H.Make (S)

  let run ~seed ~n ~keys ~queries =
    let net = Network.create ~hosts:n in
    let h = HS.build ~net ~seed keys in
    let rng = Prng.create (seed + 1) in
    let msgs = ref [] in
    let conflicts = ref [] in
    let per_level = Hashtbl.create 32 in
    Array.iter
      (fun q ->
        let tr = Trace.create () in
        let _, stats = HS.query ~trace:tr h ~rng q in
        (* Every hop of a hierarchy query happens inside a leveled span; a
           stray unattributed hop means the instrumentation regressed. *)
        if Trace.unattributed_hops tr <> 0 then failwith "exp_trace: unattributed hops";
        if Trace.total_hops tr <> stats.HS.messages then
          failwith "exp_trace: trace disagrees with session message count";
        msgs := float_of_int stats.HS.messages :: !msgs;
        List.iter
          (fun v -> conflicts := float_of_int v :: !conflicts)
          stats.HS.per_level_visits;
        List.iter
          (fun (level, hops) ->
            Hashtbl.replace per_level level
              (hops + try Hashtbl.find per_level level with Not_found -> 0))
          (Trace.per_level_hops tr))
      queries;
    let traffic = List.init n (fun host -> float_of_int (Network.traffic net host)) in
    {
      instance = S.name;
      n;
      ops = Array.length queries;
      msgs = Stats.summarize !msgs;
      per_level = Hashtbl.fold (fun l c acc -> (l, c) :: acc) per_level [] |> List.sort compare;
      conflicts = Stats.summarize !conflicts;
      traffic = Stats.summarize traffic;
    }
end

module MInts = Measure (I.Ints)
module MP2 = Measure (I.Points2d)

let json_of_row r =
  let matrix =
    String.concat ", "
      (List.map (fun (level, msgs) -> Printf.sprintf "[%d, %d]" level msgs) r.per_level)
  in
  Printf.sprintf
    "    {\"instance\": \"%s\", \"n\": %d, \"ops\": %d,\n\
    \     \"messages_per_op\": %s,\n\
    \     \"per_level_messages\": [%s],\n\
    \     \"conflict_sizes\": %s,\n\
    \     \"host_traffic\": %s}"
    (Trace.json_escape r.instance)
    r.n r.ops (C.json_of_summary r.msgs) matrix
    (C.json_of_summary r.conflicts)
    (C.json_of_summary r.traffic)

let run (cfg : C.config) =
  C.section "Per-level cost attribution via traces (E16b)";
  let sizes = if cfg.C.quick then [ 256; 1024 ] else [ 1024; 4096 ] in
  let rows =
    List.concat_map
      (fun n ->
        let seed = List.hd cfg.C.seeds in
        let keys = W.distinct_ints ~seed ~n ~bound:(100 * n) in
        let ints_row =
          MInts.run ~seed ~n ~keys
            ~queries:(W.query_mix ~seed:(seed + 2) ~keys ~n:cfg.C.queries ~bound:(100 * n))
        in
        let pts = W.uniform_points ~seed:(seed + 3) ~n ~dim:2 in
        let pts_row =
          MP2.run ~seed ~n ~keys:pts
            ~queries:(W.uniform_query_points ~seed:(seed + 4) ~n:cfg.C.queries ~dim:2)
        in
        [ ints_row; pts_row ])
      sizes
  in
  let tbl =
    Tables.create ~title:"messages per op, by instance (traced)"
      ~columns:[ "instance"; "n"; "mean"; "p50"; "p90"; "p99"; "mean conflicts"; "max host visits" ]
  in
  List.iter
    (fun r ->
      Tables.add_row tbl
        [
          r.instance;
          string_of_int r.n;
          Tables.cell_float r.msgs.Stats.mean;
          Tables.cell_float r.msgs.Stats.p50;
          Tables.cell_float r.msgs.Stats.p90;
          Tables.cell_float r.msgs.Stats.p99;
          Tables.cell_float r.conflicts.Stats.mean;
          Tables.cell_float r.traffic.Stats.max;
        ])
    rows;
  Tables.print tbl;
  (* The per-level matrix for the largest size of each instance: the lens
     the set-halving lemmas are judged through. Levels print top-down, the
     order a query descends. *)
  let biggest = List.fold_left (fun acc r -> max acc r.n) 0 rows in
  List.iter
    (fun r ->
      if r.n = biggest then begin
        let t =
          Tables.create
            ~title:(Printf.sprintf "messages per level: %s, n = %d" r.instance r.n)
            ~columns:[ "level"; "messages"; "per op" ]
        in
        List.iter
          (fun (level, msgs) ->
            Tables.add_row t
              [
                string_of_int level;
                string_of_int msgs;
                Tables.cell_float (float_of_int msgs /. float_of_int r.ops);
              ])
          (List.rev r.per_level);
        Tables.print t
      end)
    rows;
  (* Guard: tracing is observation only. *)
  C.assert_trace_transparent ~label:"hierarchy/sorted-list n=1024" ~run:(fun ~traced ->
      let seed = List.hd cfg.C.seeds in
      let keys = W.distinct_ints ~seed ~n:1024 ~bound:102_400 in
      let net = Network.create ~hosts:1024 in
      let h = MInts.HS.build ~net ~seed keys in
      let rng = Prng.create (seed + 1) in
      Array.iter
        (fun q ->
          let trace = if traced then Some (Trace.create ()) else None in
          ignore (MInts.HS.query ?trace h ~rng q))
        (W.query_mix ~seed:(seed + 2) ~keys ~n:100 ~bound:102_400);
      Network.total_messages net);
  C.write_json ~file:"BENCH_trace.json"
    (Printf.sprintf
       "{\n\
       \  \"experiment\": \"trace\",\n\
       \  \"workload\": \"traced query batches over the generic hierarchy\",\n\
       \  \"rows\": [\n\
        %s\n\
       \  ]\n\
        }\n"
       (String.concat ",\n" (List.map json_of_row rows)))
