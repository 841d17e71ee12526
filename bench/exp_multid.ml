(* E21: the multi-dimensional fast path under a mixed workload.

   Three skip-webs — quadtree-2d, trie, trapezoidal map — each bulk-built
   and then driven through a mixed batch of point queries and multi-result
   scans (axis-aligned boxes and k-NN on the quadtree, prefix enumerations
   on the trie, point-location scans on the trapmap), plus an
   insert_batch/remove_batch update phase and, on the quadtree and trie,
   a sequential single-op churn. Every phase runs under an internal
   --jobs sweep {1, 2, 4} and the deterministic digest of each run —
   every answer, every per-query message count, the network's message
   total, the charged memory of every host, the structure size and the
   churn's bill — must be bit-identical across the sweep, so the JSON
   keeps one row per workload. BENCH_multid.json is a function of the
   seed and sizes. The wall clock of the quadtree's build, batch
   queries, scans and batch writes, and of the pooled bulk build
   ([cqtree.pool_speedup]), is measured by perf/'s [bulk-quadtree]
   workload.

   The trapezoidal map rows use much smaller n than the tree structures:
   each segment insertion validates against every stored segment (the
   structure is a planar subdivision, not a search tree), so its build is
   Θ(m²) by contract and a 10⁵-segment row would dominate the whole
   bench without measuring anything new. *)

module Network = Skipweb_net.Network
module H = Skipweb_core.Hierarchy
module I = Skipweb_core.Instances
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module DPool = Skipweb_util.Pool
module Point = Skipweb_geom.Point
module C = Bench_common

(* The sequential single-op churn phase, on instances that support
   removal. *)
type churn = { ops : int; churn_messages : int; final_size : int }

type run_out = {
  structure : string;
  n : int;
  jobs : int;
  queries : int;
  scans : int;
  batch : int;
  messages : int;  (* network total after the query + scan phases *)
  mem_total : int;  (* charged memory after the update phase *)
  size : int;
  churn : churn option;
  (* Everything observable, for the cross-jobs identity assert: answers,
     per-op message counts, per-host memory, the churn's bill. Compared
     and then dropped — only the scalar summary above reaches the JSON. *)
  digest : string;
}

let hosts_for n = min (max 64 n) 4096

(* A short printable digest of the full observable tuple, via Marshal so
   unequal runs can't collide silently. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* One runner for every instance: bulk build, a point-query batch, a scan
   batch, the native batch update (insert [fresh], and remove it again
   where the instance supports removal), then — on those instances only —
   a sequential single-op churn: [i mod 4] = insert / remove / insert /
   query, inserts drawn from [fresh], removes uniform over the stored
   keys, queries from the row's query set. *)
module Runner (S : Skipweb_core.Range_structure.S) = struct
  module HS = H.Make (S)

  type inputs = {
    name : string;
    keys : S.key array;
    queries : S.query array;
    scans : S.scan array;
    fresh : S.key array;  (* disjoint from [keys] *)
    removable : bool;
  }

  let run_churn ~seed h inp =
    let n = Array.length inp.keys in
    let ops = max 200 (min 2000 (n / 10)) in
    let alive = Array.make (n + ops) inp.keys.(0) in
    Array.blit inp.keys 0 alive 0 n;
    let len = ref n and next_fresh = ref 0 and messages = ref 0 in
    let rng = Prng.create (seed + 0x9d2) in
    for i = 0 to ops - 1 do
      match i mod 4 with
      | (0 | 2) when !next_fresh < Array.length inp.fresh ->
          let k = inp.fresh.(!next_fresh) in
          incr next_fresh;
          messages := !messages + HS.insert h k;
          alive.(!len) <- k;
          incr len
      | 1 when !len > 1 ->
          let j = Prng.int rng !len in
          let k = alive.(j) in
          alive.(j) <- alive.(!len - 1);
          decr len;
          messages := !messages + HS.remove h k
      | _ ->
          let q = inp.queries.(Prng.int rng (Array.length inp.queries)) in
          let _, st = HS.query h ~rng q in
          messages := !messages + st.HS.messages
    done;
    HS.check_invariants h;
    { ops; churn_messages = !messages; final_size = HS.size h }

  let run ~seed inp ~jobs =
    DPool.with_pool ~jobs (fun pool ->
        let n = Array.length inp.keys in
        let net = Network.create ~hosts:(hosts_for n) in
        let h = HS.build ~net ~seed ?pool inp.keys in
        let answers = HS.query_batch ?pool h ~rng:(Prng.create (seed + 2)) inp.queries in
        let sanswers = HS.scan_batch ?pool h ~rng:(Prng.create (seed + 4)) inp.scans in
        let messages = Network.total_messages net in
        let ins = HS.insert_batch ?pool h inp.fresh in
        let rmv = if inp.removable then HS.remove_batch ?pool h inp.fresh else 0 in
        HS.check_invariants h;
        let memory () = List.init (hosts_for n) (Network.memory net) in
        let mem = memory () and mem_total = Network.total_memory net and size = HS.size h in
        let churn = if inp.removable then Some (run_churn ~seed h inp) else None in
        let digest =
          fingerprint
            ( Array.map (fun (a, st) -> (a, st.HS.messages)) answers,
              Array.map (fun (a, st) -> (a, st.HS.messages)) sanswers,
              (ins, rmv, messages, mem, size),
              Option.map (fun c -> (c.churn_messages, c.final_size, memory ())) churn )
        in
        {
          structure = inp.name;
          n;
          jobs;
          queries = Array.length inp.queries;
          scans = Array.length inp.scans;
          batch = Array.length inp.fresh;
          messages;
          mem_total;
          size;
          churn;
          digest;
        })
end

module RPoints = Runner (I.Points2d)
module RStrings = Runner (I.Strings)
module RSegments = Runner (I.Segments)

(* ---------------- per-instance inputs ---------------- *)

let fresh_count n = min 20_000 (max 64 (n / 10))

(* Scans alternate boxes and k-NN probes, both derived from the same
   deterministic query stream. *)
let points_inputs ~seed ~n ~nq ~nscan =
  let box c =
    let lo = Point.create [ Float.min c.(0) 0.8; Float.min c.(1) 0.8 ] in
    let hi = Point.create [ Float.min c.(0) 0.8 +. 0.15; Float.min c.(1) 0.8 +. 0.15 ] in
    I.Box { lo; hi; limit = 32 }
  in
  {
    RPoints.name = "quadtree-2d";
    keys = W.uniform_points ~seed ~n ~dim:2;
    queries = W.uniform_query_points ~seed:(seed + 1) ~n:nq ~dim:2;
    scans =
      Array.mapi
        (fun i c -> if i mod 2 = 0 then box c else I.Knn { center = c; k = 8 })
        (W.uniform_query_points ~seed:(seed + 3) ~n:nscan ~dim:2);
    fresh = W.uniform_points ~seed:(seed + 5) ~n:(fresh_count n) ~dim:2;
    removable = true;
  }

(* Shortest length whose 4-letter key space holds 2n distinct strings
   (the generator's headroom requirement), floored at 10 so the small
   sizes keep the same workload shape. *)
let strlen_for n =
  let rec go len cap = if cap >= 2 * n then len else go (len + 1) (4 * cap) in
  go 10 (4 * 4 * 4 * 4 * 4 * 4 * 4 * 4 * 4 * 4)

(* Prefix scans: short prefixes of stored strings, so most scans
   enumerate a non-trivial subtree. The fresh batch is one letter longer
   than the stored keys, hence disjoint from them. *)
let strings_inputs ~seed ~n ~nq ~nscan =
  let keys = W.random_strings ~seed ~n ~alphabet:4 ~len:(strlen_for n) in
  {
    RStrings.name = "trie";
    keys;
    queries = W.string_queries ~seed:(seed + 1) ~keys ~n:nq;
    scans =
      Array.map
        (fun s -> { I.prefix = String.sub s 0 (min 2 (String.length s)); scan_limit = 32 })
        (W.string_queries ~seed:(seed + 3) ~keys ~n:nscan);
    fresh =
      W.random_strings ~seed:(seed + 5) ~n:(fresh_count n) ~alphabet:4 ~len:(strlen_for n + 1);
    removable = true;
  }

(* Trapezoidal maps don't support deletion: the update phase is
   insert-only, with segments drawn from the same disjoint family. *)
let segments_inputs ~seed ~n ~nq ~nscan =
  let extra_n = max 8 (n / 10) in
  let all = W.disjoint_segments ~seed ~n:(n + extra_n) in
  {
    RSegments.name = "trapmap";
    keys = Array.sub all 0 n;
    queries = W.trapmap_query_points ~seed:(seed + 1) ~n:nq;
    scans = W.trapmap_query_points ~seed:(seed + 3) ~n:nscan;
    fresh = Array.sub all n extra_n;
    removable = false;
  }

(* ---------------- harness ---------------- *)

let json_of_row r =
  let churn =
    match r.churn with
    | None -> ""
    | Some c ->
        Printf.sprintf ",\n     \"churn_ops\": %d, \"churn_messages\": %d, \"final_size\": %d"
          c.ops c.churn_messages c.final_size
  in
  Printf.sprintf
    "    {\"structure\": \"%s\", \"n\": %d, \"queries\": %d, \"scans\": %d, \"batch\": %d, \
     \"messages\": %d, \"mem_total\": %d, \"size\": %d%s}"
    r.structure r.n r.queries r.scans r.batch r.messages r.mem_total r.size churn

let json ~jobs_swept ~answers_identical rows =
  Printf.sprintf
    "{\n\
    \  \"experiment\": \"multid\",\n\
    \  \"workload\": \"bulk build + mixed point/range/k-NN/prefix batches + native batch \
     updates on quadtree-2d, trie and trapmap webs\",\n\
    \  \"jobs_swept\": [%s],\n\
    \  \"answers_identical\": %b,\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ", " (List.map string_of_int jobs_swept))
    answers_identical
    (String.concat ",\n" (List.map json_of_row rows))

let run (cfg : C.config) =
  C.section
    "Multi-dimensional fast path: bulk build, batch queries + scans, batch updates, churn (E21)";
  let tree_sizes = if cfg.C.quick then [ 2_000; 10_000 ] else [ 100_000; 1_000_000 ] in
  let trap_sizes = if cfg.C.quick then [ 300 ] else [ 1_500 ] in
  let nq = if cfg.C.quick then 200 else 2_000 in
  let nscan = if cfg.C.quick then 100 else 500 in
  (* Deliberately NOT clamped to the hardware: the sweep exists to prove
     the pooled paths are jobs-invariant, and an oversubscribed pool is
     exactly as deterministic as a well-sized one — only slower. The
     oversubscription is announced on stderr. *)
  let jobs_swept = [ 1; 2; 4 ] in
  let domains = Domain.recommended_domain_count () in
  (match List.filter (fun j -> j > domains) jobs_swept with
  | [] -> ()
  | over ->
      Printf.eprintf
        "E21: jobs %s exceed the %d recommended domains; those sweep points run oversubscribed \
         (a determinism check, not a speedup)\n%!"
        (String.concat "/" (List.map string_of_int over))
        domains);
  let seed = List.hd cfg.C.seeds in
  let identical = ref true in
  (* Sweep one workload over the jobs list, verify every other run's
     digest against the first, and keep the first as the row. *)
  let sweep runner =
    let runs = List.map (fun jobs -> runner ~jobs) jobs_swept in
    let base = List.hd runs in
    List.iter
      (fun r ->
        if r.digest <> base.digest then begin
          identical := false;
          Printf.printf "DIGEST MISMATCH: %s n=%d jobs=%d diverges from jobs=%d\n" r.structure
            r.n r.jobs base.jobs
        end)
      (List.tl runs);
    base
  in
  let rows =
    List.concat
      [
        List.map (fun n -> sweep (RPoints.run ~seed (points_inputs ~seed ~n ~nq ~nscan))) tree_sizes;
        List.map (fun n -> sweep (RStrings.run ~seed (strings_inputs ~seed ~n ~nq ~nscan))) tree_sizes;
        List.map
          (fun n ->
            sweep
              (RSegments.run ~seed
                 (segments_inputs ~seed ~n ~nq:(min nq 500) ~nscan:(min nscan 200))))
          trap_sizes;
      ]
  in
  if not !identical then failwith "exp_multid: answers diverged across the jobs sweep";
  let tbl =
    Skipweb_util.Tables.create ~title:"multi-d mixed workload: messages, memory and churn bill"
      ~columns:[ "structure"; "n"; "messages"; "mem"; "size"; "churn msgs" ]
  in
  List.iter
    (fun r ->
      Skipweb_util.Tables.add_row tbl
        [
          r.structure;
          string_of_int r.n;
          string_of_int r.messages;
          string_of_int r.mem_total;
          string_of_int r.size;
          (match r.churn with Some c -> string_of_int c.churn_messages | None -> "-");
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  Printf.printf "jobs sweep {%s}: answers, messages and charged memory identical\n"
    (String.concat ", " (List.map string_of_int jobs_swept));
  C.write_json ~file:"BENCH_multid.json" (json ~jobs_swept ~answers_identical:!identical rows)
