(* E15b: the host-side update path and the parallel read path at scale.

   The message-count experiments run at n <= 8 192; this one bulk-loads a
   generic 1-d skip-web at n in {1k, 10k, 100k, 1M} and runs a mixed
   churn workload against it (40% insert, 40% delete, 20% query), then a
   query-only phase and a batch-write phase, and reports what the §4
   analysis counts: messages per update and per query, the size the
   churn leaves, and the charged memory after the batch writes. A level
   set of at most 32 keys is one flat sorted array that an update
   replaces; a larger one is a chunked sorted sequence, where an update
   memmoves at most one O(√n) chunk, so the per-op host-side cost is
   O(log n) levels of one binary search plus that bounded copy each.

   Bulk load goes through [Hierarchy.insert_batch] (which [build] routes
   through): one registration pass, then one sorted sweep per level,
   fanned over the --jobs pool (one task per level, heaviest first). The
   query-only phase fans independent queries out over the same pool:
   query i draws its coins from [Prng.stream] i, a pure function of
   (seed, i), so its message count does not depend on which domain runs
   it. The batch-write phase bulk-inserts a fresh key batch and removes
   it again through [insert_batch]/[remove_batch] under the pool; writes
   route no queries, so it adds no messages.

   Every member of BENCH_scale.json is a function of the seed and the
   sizes, identical for any --jobs count. The wall clock of these paths
   is measured by the calibrated harness in perf/: the [serve-1d]
   workload times single queries and writes on the 1-d hierarchy, and
   [churn-replicated] times its pooled batch writes against a jobs-1
   re-run ([pool.insert.speedup], [pool.remove.speedup]). *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Stats = Skipweb_util.Stats
module DPool = Skipweb_util.Pool
module C = Bench_common

module HInt = H.Make (I.Ints)

type row = {
  n : int;
  churn_ops : int;
  churn_messages : int;
  mean_update_msgs : float;
  final_size : int;
  query_ops : int;
  query_messages : Stats.summary;
  write_batch : int;
  write_mem_total : int;  (* total charged memory after the write phase *)
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
  let h = HInt.build ~net ~seed ?pool keys in
  let kpool = Key_pool.of_array keys in
  let rng = Prng.create (seed + 0x5ca1e) in
  let messages = ref 0 in
  let updates = ref 0 in
  for i = 0 to ops - 1 do
    match i mod 5 with
    | 0 | 2 ->
        (* Insert a fresh key. *)
        let rec fresh () =
          let k = Prng.int rng bound in
          if Key_pool.mem kpool k then fresh () else k
        in
        let k = fresh () in
        messages := !messages + HInt.insert h k;
        incr updates;
        Key_pool.add kpool k
    | 1 | 3 -> (
        match Key_pool.remove_random kpool rng with
        | Some k ->
            messages := !messages + HInt.remove h k;
            incr updates
        | None -> ())
    | _ ->
        let q = Prng.int rng bound in
        let _, stats = HInt.query h ~rng q in
        messages := !messages + stats.HInt.messages
  done;
  HInt.check_invariants h;
  (* Parallel read phase: independent queries over the settled structure.
     Query keys are drawn sequentially; query i's origin coins come from
     [Prng.stream qcoins i], so every jobs count computes the same
     messages, summarized in sorted order. *)
  let query_ops = 2 * ops in
  let qgen = Prng.create (seed + 0xba7c4) in
  let qs = Array.init query_ops (fun _ -> Prng.int qgen bound) in
  let qcoins = Prng.create (seed + 0x0271617) in
  let query_msgs i = (snd (HInt.query h ~rng:(Prng.stream qcoins i) qs.(i))).HInt.messages in
  let msgs =
    let idx = Array.init query_ops Fun.id in
    match pool with
    | None -> Array.map query_msgs idx
    | Some p -> DPool.parallel_map p query_msgs idx
  in
  let final_size = HInt.size h in
  (* Batch-write phase: bulk-insert a fresh batch and bulk-remove it
     again, both fanned per level over the pool. Keys are drawn above the
     stored domain so the batch is disjoint from the structure by
     construction. *)
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
  let inserted = HInt.insert_batch ?pool h wkeys in
  let removed = HInt.remove_batch ?pool h wkeys in
  if inserted <> write_batch || removed <> write_batch then
    failwith "exp_scale: write phase lost keys";
  HInt.check_invariants h;
  {
    n;
    churn_ops = ops;
    churn_messages = !messages;
    mean_update_msgs =
      (if !updates = 0 then 0.0 else float_of_int !messages /. float_of_int !updates);
    final_size;
    query_ops;
    query_messages = Stats.summarize_ints (List.sort compare (Array.to_list msgs));
    write_batch;
    write_mem_total = Network.total_memory net;
  }

let json_of_rows rows =
  let row_json r =
    Printf.sprintf
      "    {\"n\": %d, \"churn_ops\": %d, \"churn_messages\": %d, \"mean_update_msgs\": %.2f, \
       \"final_size\": %d, \"write_ops\": %d, \"write_mem_total\": %d,\n\
      \     \"query\": {\"ops\": %d, \"messages\": %s}}"
      r.n r.churn_ops r.churn_messages r.mean_update_msgs r.final_size (2 * r.write_batch)
      r.write_mem_total r.query_ops
      (C.json_of_summary r.query_messages)
  in
  Printf.sprintf
    "{\n  \"experiment\": \"scale\",\n  \"structure\": \"1-d generic skip-web (Hierarchy + \
     sorted lists)\",\n  \"workload\": \"bulk load, mixed churn (40%% insert / 40%% delete / \
     20%% query), a parallel query phase, then a parallel batch-write phase\",\n  \"rows\": \
     [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map row_json rows))

let run (cfg : C.config) =
  C.section "Bulk load + churn + parallel queries + batch writes at scale (E15b)";
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
    Skipweb_util.Tables.create ~title:"message cost at scale: churn, query phase, batch writes"
      ~columns:
        [
          "n"; "churn ops"; "churn msgs"; "mean upd msgs"; "final size"; "q ops"; "q mean msgs";
          "q p99 msgs"; "w ops"; "w mem total";
        ]
  in
  List.iter
    (fun r ->
      Skipweb_util.Tables.add_row tbl
        [
          string_of_int r.n;
          string_of_int r.churn_ops;
          string_of_int r.churn_messages;
          Printf.sprintf "%.1f" r.mean_update_msgs;
          string_of_int r.final_size;
          string_of_int r.query_ops;
          Printf.sprintf "%.2f" r.query_messages.Stats.mean;
          Printf.sprintf "%.0f" r.query_messages.Stats.p99;
          string_of_int (2 * r.write_batch);
          string_of_int r.write_mem_total;
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  C.write_json ~file:"BENCH_scale.json" (json_of_rows rows)
