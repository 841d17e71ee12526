(* E15b: wall-clock scalability of the host-side update path and the
   parallel read path.

   The message-count experiments treat the simulator as free; this one
   makes sure it actually is. We bulk-load a generic 1-d skip-web at
   n in {1k, 10k, 100k, 1M} and then run a mixed churn workload (40%
   insert, 40% delete, 20% query) against it, timing both phases. A
   level set of at most 32 keys is one flat sorted array that an update
   replaces (a copy of at most 32 ints); a larger one is a chunked
   sorted sequence, where an update memmoves at most one O(√n) chunk.
   The id arena's [key_slot] table maps a stored key to its arena slot,
   so an update finds the element's id and swap-pops it in O(1)
   expected hashtable work. With delta-driven memory recharging, the
   per-op host-side cost is O(log n) levels of one binary search plus
   that bounded copy each. The one flat array per level that this
   replaced copied the whole level-0 array on every update, and the
   seed implementation before it rebuilt O(n) state per update.

   Bulk load goes through [Hierarchy.insert_batch] (which [build]
   routes through): one registration pass, then one sorted sweep per
   level instead of n independent locates. With --jobs > 1 the per-level
   sweeps fan out over the domain pool (one task per level, heaviest
   first), so the build is timed as a parallel phase; the resulting
   structure and charges are bit-identical for every jobs count.

   After the churn, a query-only phase fans independent queries out over
   the --jobs domain pool (§4 only serializes updates; queries are
   read-only walks). Each query i draws its coins from [Prng.stream] i —
   a pure function of (seed, i) — and each domain records latency into
   its own [Metrics] shard, merged by name afterwards, so the emitted
   message statistics are bit-identical for every jobs count and only the
   wall clock changes.

   A final batch-write phase times [insert_batch]/[remove_batch] of a
   fresh key batch under the same pool — the parallel write path's
   headline number. Batch writes are host-side maintenance (no query
   routing), so the phase adds no messages and leaves every deterministic
   field untouched; its wall clocks live in the "write" JSON member,
   stripped by CI alongside "timing" and "latency".

   Per-op wall-clock latency is recorded into a [Metrics] registry
   (insert/remove/query in microseconds, via the monotonic clock in
   [Bench_common.now]), so the JSON carries p50/p90/p99 latency shapes
   alongside throughput. Results are printed as a table and written to
   BENCH_scale.json so the perf trajectory is machine-readable across
   PRs. Timing fields are confined to the "timing" and "latency" JSON
   members, so CI can strip them and byte-compare the rest across jobs
   settings. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Metrics = Skipweb_util.Metrics
module DPool = Skipweb_util.Pool
module C = Bench_common

module HInt = H.Make (I.Ints)

type row = {
  n : int;
  build_s : float;
  churn_ops : int;
  churn_s : float;
  churn_messages : int;
  mean_update_msgs : float;
  final_size : int;
  query_ops : int;
  query_s : float;
  write_batch : int;
  write_insert_s : float;
  write_remove_s : float;
  write_mem_total : int;  (* total charged memory after the write phase *)
  jobs : int;
  metrics : Metrics.t;  (* per-op latency histograms (us) + query messages *)
}

(* A swap-pop pool of the keys currently stored, for uniform delete
   targets without scanning. *)
module Key_pool = struct
  type t = { mutable data : int array; mutable len : int; pos : (int, int) Hashtbl.t }

  let of_array keys =
    let data = Array.copy keys in
    let pos = Hashtbl.create (Array.length keys) in
    Array.iteri (fun i k -> Hashtbl.replace pos k i) data;
    { data; len = Array.length data; pos }

  let mem p k = Hashtbl.mem p.pos k

  let add p k =
    if not (mem p k) then begin
      if p.len = Array.length p.data then begin
        let bigger = Array.make (max 8 (2 * p.len)) 0 in
        Array.blit p.data 0 bigger 0 p.len;
        p.data <- bigger
      end;
      p.data.(p.len) <- k;
      Hashtbl.replace p.pos k p.len;
      p.len <- p.len + 1
    end

  let remove_random p rng =
    if p.len = 0 then None
    else begin
      let i = Prng.int rng p.len in
      let k = p.data.(i) in
      let last = p.len - 1 in
      p.data.(i) <- p.data.(last);
      Hashtbl.replace p.pos p.data.(i) i;
      p.len <- last;
      Hashtbl.remove p.pos k;
      Some k
    end
end

let measure ~pool ~seed ~n ~ops =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let net = Network.create ~hosts:n in
  let h, build_s = C.timed (fun () -> HInt.build ~net ~seed ?pool keys) in
  let kpool = Key_pool.of_array keys in
  let rng = Prng.create (seed + 0x5ca1e) in
  let messages = ref 0 in
  let updates = ref 0 in
  let m = Metrics.create () in
  let timed name f =
    let s = C.now () in
    let r = f () in
    let us = 1e6 *. (C.now () -. s) in
    Metrics.observe m name us;
    Metrics.observe m "op_us" us;
    r
  in
  let t1 = C.now () in
  for i = 0 to ops - 1 do
    match i mod 5 with
    | 0 | 2 ->
        (* Insert a fresh key. *)
        let rec fresh () =
          let k = Prng.int rng bound in
          if Key_pool.mem kpool k then fresh () else k
        in
        let k = fresh () in
        messages := !messages + timed "insert_us" (fun () -> HInt.insert h k);
        incr updates;
        Key_pool.add kpool k
    | 1 | 3 -> (
        match Key_pool.remove_random kpool rng with
        | Some k ->
            messages := !messages + timed "remove_us" (fun () -> HInt.remove h k);
            incr updates
        | None -> ())
    | _ ->
        let q = Prng.int rng bound in
        let _, stats = timed "query_us" (fun () -> HInt.query h ~rng q) in
        messages := !messages + stats.HInt.messages
  done;
  let churn_s = C.now () -. t1 in
  HInt.check_invariants h;
  (* Parallel read phase: independent queries over the settled structure.
     Query keys are drawn sequentially; query i's origin coins come from
     [Prng.stream qcoins i], a pure function of (seed, i) — never of the
     chunk layout — so every jobs count computes the same messages. The
     message counts land in an index-slotted array and are folded into
     the registry sequentially (deterministic sample order); only the
     per-domain latency shards depend on the chunking, and latency is
     non-deterministic anyway. *)
  let query_ops = 2 * ops in
  let qgen = Prng.create (seed + 0xba7c4) in
  let qs = Array.init query_ops (fun _ -> Prng.int qgen bound) in
  let qcoins = Prng.create (seed + 0x0271617) in
  let jobs = match pool with None -> 1 | Some p -> DPool.jobs p in
  let msgs_of = Array.make query_ops 0 in
  let shards = Array.init jobs (fun _ -> Metrics.create ()) in
  let chunk c =
    let shard = shards.(c) in
    let lo = c * query_ops / jobs and hi = (c + 1) * query_ops / jobs in
    for i = lo to hi - 1 do
      let s = C.now () in
      let _, stats = HInt.query h ~rng:(Prng.stream qcoins i) qs.(i) in
      Metrics.observe shard "pq_us" (1e6 *. (C.now () -. s));
      msgs_of.(i) <- stats.HInt.messages
    done
  in
  let t2 = C.now () in
  (match pool with
  | None -> chunk 0
  | Some p -> DPool.parallel_for p ~lo:0 ~hi:jobs chunk);
  let query_s = C.now () -. t2 in
  Array.iter (fun v -> Metrics.observe_int m "query.messages" v) msgs_of;
  Array.iter (fun shard -> Metrics.merge m shard) shards;
  let final_size = HInt.size h in
  (* Batch-write phase: bulk-insert a fresh batch and bulk-remove it
     again, both fanned per level over the pool. Keys are drawn above the
     stored domain so the batch is disjoint from the structure by
     construction; writes route no queries, so the phase adds no messages
     and the only deterministic fields it contributes are the op count and
     the (restored) total charged memory. *)
  let write_batch = max 500 (min 20_000 (n / 5)) in
  let wgen = Prng.create (seed + 0x3b17e) in
  let wtaken = Hashtbl.create write_batch in
  let wkeys = Array.make write_batch 0 in
  let filled = ref 0 in
  while !filled < write_batch do
    let k = bound + Prng.int wgen bound in
    if not (Hashtbl.mem wtaken k) then begin
      Hashtbl.replace wtaken k ();
      wkeys.(!filled) <- k;
      incr filled
    end
  done;
  let inserted, write_insert_s = C.timed (fun () -> HInt.insert_batch ?pool h wkeys) in
  let removed, write_remove_s = C.timed (fun () -> HInt.remove_batch ?pool h wkeys) in
  if inserted <> write_batch || removed <> write_batch then
    failwith "exp_scale: write phase lost keys";
  HInt.check_invariants h;
  {
    n;
    build_s;
    churn_ops = ops;
    churn_s;
    churn_messages = !messages;
    mean_update_msgs =
      (if !updates = 0 then 0.0 else float_of_int !messages /. float_of_int !updates);
    final_size;
    query_ops;
    query_s;
    write_batch;
    write_insert_s;
    write_remove_s;
    write_mem_total = Network.total_memory net;
    jobs;
    metrics = m;
  }

(* ---------------- the --jobs write sweep ---------------- *)

(* One point of the speedup curve: the same batch insert + remove cycle
   timed under a pool of [sw_jobs] domains. *)
type sweep_point = { sw_jobs : int; sw_insert_s : float; sw_remove_s : float }

(* Fresh keys above the stored domain, disjoint from the structure by
   construction (same recipe as the per-row write phase). *)
let fresh_batch ~seed ~bound count =
  let gen = Prng.create (seed + 0x3b17e) in
  let taken = Hashtbl.create count in
  let out = Array.make count 0 in
  let filled = ref 0 in
  while !filled < count do
    let k = bound + Prng.int gen bound in
    if not (Hashtbl.mem taken k) then begin
      Hashtbl.replace taken k ();
      out.(!filled) <- k;
      incr filled
    end
  done;
  out

(* The write-throughput speedup curve: one structure at the sweep size,
   then for each jobs count a timed [insert_batch] + [remove_batch] cycle
   under its own pool — the remove restores the key set, so every point
   times the same transition. Each cycle re-inserts the batch under fresh
   element ids, hence fresh membership vectors, so the charged memory
   legitimately differs from point to point. A determinism assert rides
   along: a twin structure over the same keys then runs the same cycles
   at jobs 1 (so its ids match), and every point must leave the per-host
   charged memory and the size its twin left. The twin runs after the
   timed structure is dropped, so only one is alive at a time. *)
let write_sweep ~seed ~n jobs_list =
  let bound = 100 * n in
  let keys = W.distinct_ints ~seed ~n ~bound in
  let batch = max 500 (min 20_000 (n / 5)) in
  let wkeys = fresh_batch ~seed ~bound batch in
  let digest net =
    let acc = ref 0 in
    for host = 0 to n - 1 do
      acc := Prng.hash2 !acc (Network.memory net host)
    done;
    !acc
  in
  let cycles with_jobs =
    let net = Network.create ~hosts:n in
    let h = HInt.build ~net ~seed keys in
    List.map
      (fun jobs ->
        with_jobs jobs (fun pool ->
            let inserted, insert_s = C.timed (fun () -> HInt.insert_batch ?pool h wkeys) in
            let full = digest net in
            let removed, remove_s = C.timed (fun () -> HInt.remove_batch ?pool h wkeys) in
            if inserted <> batch || removed <> batch then
              failwith "exp_scale: write sweep lost keys";
            ((full, digest net, HInt.size h), insert_s, remove_s)))
      jobs_list
  in
  let pooled = cycles (fun jobs f -> DPool.with_pool ~jobs f) in
  let twin = cycles (fun _ f -> f None) in
  let points =
    List.map2
      (fun jobs ((state, sw_insert_s, sw_remove_s), (expected, _, _)) ->
        if state <> expected then failwith "exp_scale: write sweep diverged from its jobs-1 twin";
        { sw_jobs = jobs; sw_insert_s; sw_remove_s })
      jobs_list (List.combine pooled twin)
  in
  (batch, points)

let json_of_sweep ~n ~batch points =
  let total p = p.sw_insert_s +. p.sw_remove_s in
  let base = match points with p :: _ -> total p | [] -> 0.0 in
  let point_json p =
    (* Whole point on one line carrying "timing", so the CI jobs-diff
       strips it; "speedup" stays greppable in the full artifact. *)
    Printf.sprintf
      "      {\"jobs\": %d, \"timing\": {\"insert_s\": %.6f, \"remove_s\": %.6f, \
       \"write_ops_per_s\": %.1f}, \"speedup\": %.2f}"
      p.sw_jobs p.sw_insert_s p.sw_remove_s
      (float_of_int (2 * batch) /. Float.max 1e-9 (total p))
      (base /. Float.max 1e-9 (total p))
  in
  Printf.sprintf
    "  \"write_sweep\": {\"n\": %d, \"batch\": %d, \"jobs_swept\": [%s],\n\
    \    \"points\": [\n%s\n    ]}"
    n batch
    (String.concat ", " (List.map (fun p -> string_of_int p.sw_jobs) points))
    (String.concat ",\n" (List.map point_json points))

let json_of_rows ~sweep rows =
  let latency_json r =
    let field name =
      match Metrics.histogram_summary r.metrics name with
      | Some s -> Some (Printf.sprintf "\"%s\": %s" name (Metrics.json_of_summary s))
      | None -> None
    in
    String.concat ", "
      (List.filter_map field [ "insert_us"; "remove_us"; "query_us"; "op_us"; "pq_us" ])
  in
  let query_messages_json r =
    match Metrics.histogram_summary r.metrics "query.messages" with
    | Some s -> Metrics.json_of_summary s
    | None -> "{\"count\": 0}"
  in
  let row_json r =
    let write_ops = 2 * r.write_batch in
    let write_s = r.write_insert_s +. r.write_remove_s in
    Printf.sprintf
      "    {\"n\": %d, \"churn_ops\": %d, \"churn_messages\": %d, \"mean_update_msgs\": %.2f, \
       \"final_size\": %d, \"write_ops\": %d, \"write_mem_total\": %d,\n\
      \     \"query\": {\"ops\": %d, \"messages\": %s},\n\
      \     \"timing\": {\"jobs\": %d, \"build_s\": %.6f, \"churn_s\": %.6f, \
       \"churn_ops_per_s\": %.1f, \"query_s\": %.6f, \"query_ops_per_s\": %.1f},\n\
      \     \"write\": {\"batch\": %d, \"insert_s\": %.6f, \"remove_s\": %.6f, \
       \"write_ops_per_s\": %.1f},\n\
      \     \"latency\": {%s}}"
      r.n r.churn_ops r.churn_messages r.mean_update_msgs r.final_size write_ops
      r.write_mem_total r.query_ops (query_messages_json r) r.jobs r.build_s r.churn_s
      (float_of_int r.churn_ops /. Float.max 1e-9 r.churn_s)
      r.query_s
      (float_of_int r.query_ops /. Float.max 1e-9 r.query_s)
      r.write_batch r.write_insert_s r.write_remove_s
      (float_of_int write_ops /. Float.max 1e-9 write_s)
      (latency_json r)
  in
  Printf.sprintf
    "{\n  \"experiment\": \"scale\",\n  \"structure\": \"1-d generic skip-web (Hierarchy + \
     sorted lists)\",\n  \"workload\": \"bulk load, mixed churn (40%% insert / 40%% delete / \
     20%% query), a parallel query phase, then a parallel batch-write phase\",\n  \"domains\": \
     %d,\n  \"ocaml\": \"%s\",\n  \"rows\": [\n%s\n  ],\n%s\n}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ",\n" (List.map row_json rows))
    sweep

let run (cfg : C.config) =
  C.section "Bulk load + churn + parallel queries: wall-clock scaling (E15b)";
  let sizes =
    if cfg.C.quick then [ 1000; 10_000 ] else [ 1000; 10_000; 100_000; 1_000_000 ]
  in
  let rows =
    C.with_pool cfg (fun pool ->
        List.map
          (fun n ->
            let ops = max 500 (min 2000 (n / 10)) in
            measure ~pool ~seed:(List.hd cfg.C.seeds) ~n ~ops)
          sizes)
  in
  let tbl =
    Skipweb_util.Tables.create
      ~title:
        (Printf.sprintf "host-side wall clock: bulk load + churn + query phase (%d job(s))"
           cfg.C.jobs)
      ~columns:
        [
          "n"; "build (s)"; "churn ops"; "churn (s)"; "ops/s"; "mean upd msgs"; "p50 (us)";
          "p99 (us)"; "q ops"; "q (s)"; "q ops/s"; "w batch"; "w (s)"; "w ops/s";
        ]
  in
  List.iter
    (fun r ->
      let pct f =
        match Metrics.histogram_summary r.metrics "op_us" with
        | Some s -> Printf.sprintf "%.0f" (f s)
        | None -> "-"
      in
      Skipweb_util.Tables.add_row tbl
        [
          string_of_int r.n;
          Printf.sprintf "%.3f" r.build_s;
          string_of_int r.churn_ops;
          Printf.sprintf "%.3f" r.churn_s;
          Printf.sprintf "%.0f" (float_of_int r.churn_ops /. Float.max 1e-9 r.churn_s);
          Printf.sprintf "%.1f" r.mean_update_msgs;
          pct (fun s -> s.Skipweb_util.Stats.p50);
          pct (fun s -> s.Skipweb_util.Stats.p99);
          string_of_int r.query_ops;
          Printf.sprintf "%.3f" r.query_s;
          Printf.sprintf "%.0f" (float_of_int r.query_ops /. Float.max 1e-9 r.query_s);
          string_of_int r.write_batch;
          Printf.sprintf "%.3f" (r.write_insert_s +. r.write_remove_s);
          Printf.sprintf "%.0f"
            (float_of_int (2 * r.write_batch)
            /. Float.max 1e-9 (r.write_insert_s +. r.write_remove_s));
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  (* The --jobs write sweep: the speedup curve of the hierarchy's batch
     writes (one task per level) at the largest size, swept over its own
     pools — the headline number of the parallel write path. *)
  let sweep_n = List.fold_left max 0 sizes in
  let sweep_jobs =
    List.sort_uniq compare (List.map (fun j -> DPool.clamp_jobs ~warn:false j) [ 1; 2; 4 ])
  in
  let sweep_batch, points = write_sweep ~seed:(List.hd cfg.C.seeds) ~n:sweep_n sweep_jobs in
  let stbl =
    Skipweb_util.Tables.create
      ~title:
        (Printf.sprintf "batch-write speedup sweep (n = %d, batch = %d x insert + remove)"
           sweep_n sweep_batch)
      ~columns:[ "jobs"; "insert (s)"; "remove (s)"; "w ops/s"; "speedup" ]
  in
  let base =
    match points with p :: _ -> p.sw_insert_s +. p.sw_remove_s | [] -> 0.0
  in
  List.iter
    (fun p ->
      let total = p.sw_insert_s +. p.sw_remove_s in
      Skipweb_util.Tables.add_row stbl
        [
          string_of_int p.sw_jobs;
          Printf.sprintf "%.3f" p.sw_insert_s;
          Printf.sprintf "%.3f" p.sw_remove_s;
          Printf.sprintf "%.0f" (float_of_int (2 * sweep_batch) /. Float.max 1e-9 total);
          Printf.sprintf "%.2fx" (base /. Float.max 1e-9 total);
        ])
    points;
  Skipweb_util.Tables.print stbl;
  C.write_json ~file:"BENCH_scale.json"
    (json_of_rows
       ~sweep:(json_of_sweep ~n:sweep_n ~batch:sweep_batch points) rows)
