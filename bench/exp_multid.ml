(* E21: the multi-dimensional fast path under a mixed workload.

   Three skip-webs — quadtree-2d, trie, trapezoidal map — each bulk-built
   and then driven through a mixed batch of point queries and multi-result
   scans (axis-aligned boxes and k-NN on the quadtree, prefix enumerations
   on the trie, point-location scans on the trapmap), plus a native
   insert_batch/remove_batch update phase. Every phase runs under an
   internal --jobs sweep {1, 2, 4} (clamped to the hardware, without
   warning spam) and the deterministic digest of each run — every answer,
   every per-query message count, the network's message total, the charged
   memory of every host, and the structure size — must be bit-identical
   across the sweep: the pooled fast path is pure wall-clock.

   The headline number is the direct quadtree build at the largest size:
   the single-pass z-order bulk build (sequential and pooled) against the
   per-key insert loop it replaced, reported as a speedup ratio. All
   wall-clock values live on "timing" lines so CI can strip them and
   byte-compare the rest across --jobs settings.

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
module Cq = Skipweb_quadtree.Cqtree
module C = Bench_common

module HP2 = H.Make (I.Points2d)
module HStr = H.Make (I.Strings)
module HSeg = H.Make (I.Segments)

type phase_times = {
  t_build : float;
  t_queries : float;
  t_scans : float;
  t_updates : float;
}

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
  times : phase_times;
  (* Everything observable, for the cross-jobs identity assert: answers,
     per-op message counts, per-host memory. Compared structurally and
     then dropped — only the scalar summary above reaches the JSON. *)
  digest : string;
}

let hosts_for n = min (max 64 n) 4096

(* A short printable digest: structural equality across jobs is checked on
   the full observable tuple by the caller; this fingerprint goes into the
   comparison via Marshal so unequal runs can't collide silently. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* ---------------- quadtree-2d ---------------- *)

let run_points ~seed ~n ~nq ~nscan ~jobs =
  DPool.with_pool ~jobs (fun pool ->
      let pts = W.uniform_points ~seed ~n ~dim:2 in
      let net = Network.create ~hosts:(hosts_for n) in
      let h, t_build = C.timed (fun () -> HP2.build ~net ~seed ?pool pts) in
      let qs = W.uniform_query_points ~seed:(seed + 1) ~n:nq ~dim:2 in
      let rng = Prng.create (seed + 2) in
      let answers, t_queries = C.timed (fun () -> HP2.query_batch ?pool h ~rng qs) in
      (* Scans alternate boxes and k-NN probes, both derived from the same
         deterministic query stream. *)
      let sq = W.uniform_query_points ~seed:(seed + 3) ~n:nscan ~dim:2 in
      let scans =
        Array.mapi
          (fun i c ->
            if i mod 2 = 0 then
              let lo = Point.create [ Float.min c.(0) 0.8; Float.min c.(1) 0.8 ] in
              let hi = Point.create [ Float.min c.(0) 0.8 +. 0.15; Float.min c.(1) 0.8 +. 0.15 ] in
              I.Box { lo; hi; limit = 32 }
            else I.Knn { center = c; k = 8 })
          sq
      in
      let rng_s = Prng.create (seed + 4) in
      let sanswers, t_scans = C.timed (fun () -> HP2.scan_batch ?pool h ~rng:rng_s scans) in
      let messages = Network.total_messages net in
      let extra = W.uniform_points ~seed:(seed + 5) ~n:(min 20_000 (max 64 (n / 10))) ~dim:2 in
      let (ins, rmv), t_updates =
        C.timed (fun () ->
            let ins = HP2.insert_batch ?pool h extra in
            let rmv = HP2.remove_batch ?pool h extra in
            (ins, rmv))
      in
      HP2.check_invariants h;
      let mem = List.init (hosts_for n) (Network.memory net) in
      let digest =
        fingerprint
          ( Array.map (fun (a, st) -> (a, st.HP2.messages)) answers,
            Array.map (fun (a, st) -> (a, st.HP2.messages)) sanswers,
            ins, rmv, messages, mem, HP2.size h )
      in
      {
        structure = "quadtree-2d";
        n;
        jobs;
        queries = nq;
        scans = nscan;
        batch = Array.length extra;
        messages;
        mem_total = Network.total_memory net;
        size = HP2.size h;
        times = { t_build; t_queries; t_scans; t_updates };
        digest;
      })

(* ---------------- trie ---------------- *)

(* Shortest length whose 4-letter key space holds 2n distinct strings
   (the generator's headroom requirement), floored at 10 so the small
   sizes keep the same workload shape. *)
let strlen_for n =
  let rec go len cap = if cap >= 2 * n then len else go (len + 1) (4 * cap) in
  go 10 (4 * 4 * 4 * 4 * 4 * 4 * 4 * 4 * 4 * 4)

let run_strings ~seed ~n ~nq ~nscan ~jobs =
  DPool.with_pool ~jobs (fun pool ->
      let strs = W.random_strings ~seed ~n ~alphabet:4 ~len:(strlen_for n) in
      let net = Network.create ~hosts:(hosts_for n) in
      let h, t_build = C.timed (fun () -> HStr.build ~net ~seed ?pool strs) in
      let qs = W.string_queries ~seed:(seed + 1) ~keys:strs ~n:nq in
      let rng = Prng.create (seed + 2) in
      let answers, t_queries = C.timed (fun () -> HStr.query_batch ?pool h ~rng qs) in
      (* Prefix scans: short prefixes of stored strings, so most scans
         enumerate a non-trivial subtree. *)
      let sq = W.string_queries ~seed:(seed + 3) ~keys:strs ~n:nscan in
      let scans =
        Array.map
          (fun s ->
            { I.prefix = String.sub s 0 (min 2 (String.length s)); scan_limit = 32 })
          sq
      in
      let rng_s = Prng.create (seed + 4) in
      let sanswers, t_scans = C.timed (fun () -> HStr.scan_batch ?pool h ~rng:rng_s scans) in
      let messages = Network.total_messages net in
      let extra =
        W.random_strings ~seed:(seed + 5)
          ~n:(min 20_000 (max 64 (n / 10)))
          ~alphabet:4
          ~len:(strlen_for n + 1)
      in
      let (ins, rmv), t_updates =
        C.timed (fun () ->
            let ins = HStr.insert_batch ?pool h extra in
            let rmv = HStr.remove_batch ?pool h extra in
            (ins, rmv))
      in
      HStr.check_invariants h;
      let mem = List.init (hosts_for n) (Network.memory net) in
      let digest =
        fingerprint
          ( Array.map (fun (a, st) -> (a, st.HStr.messages)) answers,
            Array.map (fun (a, st) -> (a, st.HStr.messages)) sanswers,
            ins, rmv, messages, mem, HStr.size h )
      in
      {
        structure = "trie";
        n;
        jobs;
        queries = nq;
        scans = nscan;
        batch = Array.length extra;
        messages;
        mem_total = Network.total_memory net;
        size = HStr.size h;
        times = { t_build; t_queries; t_scans; t_updates };
        digest;
      })

(* ---------------- trapezoidal map ---------------- *)

let run_segments ~seed ~n ~nq ~nscan ~jobs =
  DPool.with_pool ~jobs (fun pool ->
      let extra_n = max 8 (n / 10) in
      let all = W.disjoint_segments ~seed ~n:(n + extra_n) in
      let segs = Array.sub all 0 n in
      let net = Network.create ~hosts:(hosts_for n) in
      let h, t_build = C.timed (fun () -> HSeg.build ~net ~seed ?pool segs) in
      let qs = W.trapmap_query_points ~seed:(seed + 1) ~n:nq in
      let rng = Prng.create (seed + 2) in
      let answers, t_queries = C.timed (fun () -> HSeg.query_batch ?pool h ~rng qs) in
      let scans = W.trapmap_query_points ~seed:(seed + 3) ~n:nscan in
      let rng_s = Prng.create (seed + 4) in
      let sanswers, t_scans = C.timed (fun () -> HSeg.scan_batch ?pool h ~rng:rng_s scans) in
      let messages = Network.total_messages net in
      (* Trapezoidal maps don't support deletion; the update phase is
         insert-only, with segments drawn from the same disjoint family. *)
      let extra = Array.sub all n extra_n in
      let ins, t_updates = C.timed (fun () -> HSeg.insert_batch ?pool h extra) in
      HSeg.check_invariants h;
      let mem = List.init (hosts_for n) (Network.memory net) in
      let digest =
        fingerprint
          ( Array.map (fun (a, st) -> (a, st.HSeg.messages)) answers,
            Array.map (fun (a, st) -> (a, st.HSeg.messages)) sanswers,
            ins, messages, mem, HSeg.size h )
      in
      {
        structure = "trapmap";
        n;
        jobs;
        queries = nq;
        scans = nscan;
        batch = extra_n;
        messages;
        mem_total = Network.total_memory net;
        size = HSeg.size h;
        times = { t_build; t_queries; t_scans; t_updates };
        digest;
      })

(* ---------------- the quadtree bulk-build headline ---------------- *)

type build_race = {
  br_n : int;
  per_key_s : float;
  bulk_s : float;
  bulk_pooled_s : float;
  pooled_jobs : int;
  speedup : float;  (* per-key / sequential bulk *)
}

let build_race ~seed ~n =
  let pts = W.uniform_points ~seed ~n ~dim:2 in
  let per_key, per_key_s =
    C.timed (fun () ->
        let t = Cq.build ~dim:2 [||] in
        Array.iter (fun p -> ignore (Cq.insert t p)) pts;
        t)
  in
  let bulk, bulk_s = C.timed (fun () -> Cq.build ~dim:2 pts) in
  let pooled_jobs = 4 in
  let pooled, bulk_pooled_s =
    DPool.with_pool ~jobs:pooled_jobs (fun pool -> C.timed (fun () -> Cq.of_sorted ?pool ~dim:2 pts))
  in
  if Cq.size bulk <> Cq.size per_key || Cq.size pooled <> Cq.size per_key then
    failwith "exp_multid: build race produced different trees";
  { br_n = n; per_key_s; bulk_s; bulk_pooled_s; pooled_jobs;
    speedup = per_key_s /. Float.max 1e-9 bulk_s }

(* ---------------- harness ---------------- *)

let json_of_row r =
  Printf.sprintf
    "    {\"structure\": \"%s\", \"n\": %d, \"queries\": %d, \"scans\": %d, \"batch\": %d, \
     \"messages\": %d, \"mem_total\": %d, \"size\": %d,\n\
    \     \"timing\": {\"jobs\": %d, \"build_s\": %.6f, \"query_s\": %.6f, \"scan_s\": %.6f, \
     \"update_s\": %.6f}}"
    r.structure r.n r.queries r.scans r.batch r.messages r.mem_total r.size r.jobs
    r.times.t_build r.times.t_queries r.times.t_scans r.times.t_updates

let json ~jobs_swept ~domains ~answers_identical ~race rows =
  Printf.sprintf
    "{\n\
    \  \"experiment\": \"multid\",\n\
    \  \"workload\": \"bulk build + mixed point/range/k-NN/prefix batches + native batch \
     updates on quadtree-2d, trie and trapmap webs\",\n\
    \  \"jobs_swept\": [%s],\n\
    \  \"domains\": %d,\n\
    \  \"ocaml\": \"%s\",\n\
    \  \"answers_identical\": %b,\n\
    \  \"build_race\": {\"structure\": \"quadtree-2d\", \"n\": %d,\n\
    \    \"timing\": {\"per_key_s\": %.6f, \"bulk_s\": %.6f, \"bulk_pooled_s\": %.6f, \
     \"pooled_jobs\": %d, \"build_speedup\": %.2f}},\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ", " (List.map string_of_int jobs_swept))
    domains Sys.ocaml_version answers_identical race.br_n race.per_key_s race.bulk_s
    race.bulk_pooled_s race.pooled_jobs race.speedup
    (String.concat ",\n" (List.map json_of_row rows))

let run (cfg : C.config) =
  C.section "Multi-dimensional fast path: bulk build, batch queries + scans, batch updates (E21)";
  let tree_sizes = if cfg.C.quick then [ 2_000; 10_000 ] else [ 100_000; 1_000_000 ] in
  let trap_sizes = if cfg.C.quick then [ 300 ] else [ 1_500 ] in
  let nq = if cfg.C.quick then 200 else 2_000 in
  let nscan = if cfg.C.quick then 100 else 500 in
  (* Deliberately NOT clamped to the hardware: the sweep exists to prove
     the pooled paths are jobs-invariant, and an oversubscribed pool is
     exactly as deterministic as a well-sized one — only slower. The
     oversubscription is announced on stderr, and the JSON records the
     domain count and compiler the sweep ran on. *)
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
  (* Sweep one workload over the jobs list; keep the jobs=1 row for the
     table and verify every other row's digest against it. *)
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
    runs
  in
  let rows =
    List.concat
      [
        List.concat_map (fun n -> sweep (fun ~jobs -> run_points ~seed ~n ~nq ~nscan ~jobs)) tree_sizes;
        List.concat_map
          (fun n -> sweep (fun ~jobs -> run_strings ~seed ~n ~nq ~nscan ~jobs))
          tree_sizes;
        List.concat_map
          (fun n ->
            sweep (fun ~jobs ->
                run_segments ~seed ~n ~nq:(min nq 500) ~nscan:(min nscan 200) ~jobs))
          trap_sizes;
      ]
  in
  if not !identical then failwith "exp_multid: answers diverged across the jobs sweep";
  let tbl =
    Skipweb_util.Tables.create
      ~title:"multi-d mixed workload: build / query / scan / update wall clock, per jobs"
      ~columns:
        [ "structure"; "n"; "jobs"; "build (s)"; "q (s)"; "scan (s)"; "upd (s)"; "messages"; "mem" ]
  in
  List.iter
    (fun r ->
      Skipweb_util.Tables.add_row tbl
        [
          r.structure;
          string_of_int r.n;
          string_of_int r.jobs;
          Printf.sprintf "%.3f" r.times.t_build;
          Printf.sprintf "%.3f" r.times.t_queries;
          Printf.sprintf "%.3f" r.times.t_scans;
          Printf.sprintf "%.3f" r.times.t_updates;
          string_of_int r.messages;
          string_of_int r.mem_total;
        ])
    rows;
  Skipweb_util.Tables.print tbl;
  let race = build_race ~seed ~n:(List.fold_left max 0 tree_sizes) in
  Printf.printf
    "quadtree bulk build at n = %d: per-key %.3fs, bulk %.3fs (%.2fx), pooled(%d) %.3fs\n"
    race.br_n race.per_key_s race.bulk_s race.speedup race.pooled_jobs race.bulk_pooled_s;
  Printf.printf "jobs sweep {%s}: answers, messages and charged memory identical\n"
    (String.concat ", " (List.map string_of_int jobs_swept));
  C.write_json ~file:"BENCH_multid.json"
    (json ~jobs_swept ~domains ~answers_identical:!identical ~race rows)
