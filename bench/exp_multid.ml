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
   churn's bill — must be bit-identical across the sweep: the pooled
   fast path is pure wall-clock.

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

type phase_times = {
  t_build : float;
  t_queries : float;
  t_scans : float;
  t_updates : float;
}

(* The sequential single-op churn phase, on instances that support
   removal. *)
type churn = { ops : int; churn_messages : int; final_size : int; t_churn : float }

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
    let (), t_churn =
      C.timed (fun () ->
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
          done)
    in
    HS.check_invariants h;
    { ops; churn_messages = !messages; final_size = HS.size h; t_churn }

  let run ~seed inp ~jobs =
    DPool.with_pool ~jobs (fun pool ->
        let n = Array.length inp.keys in
        let net = Network.create ~hosts:(hosts_for n) in
        let h, t_build = C.timed (fun () -> HS.build ~net ~seed ?pool inp.keys) in
        let rng = Prng.create (seed + 2) in
        let answers, t_queries = C.timed (fun () -> HS.query_batch ?pool h ~rng inp.queries) in
        let rng_s = Prng.create (seed + 4) in
        let sanswers, t_scans = C.timed (fun () -> HS.scan_batch ?pool h ~rng:rng_s inp.scans) in
        let messages = Network.total_messages net in
        let (ins, rmv), t_updates =
          C.timed (fun () ->
              let ins = HS.insert_batch ?pool h inp.fresh in
              (ins, if inp.removable then HS.remove_batch ?pool h inp.fresh else 0))
        in
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
          times = { t_build; t_queries; t_scans; t_updates };
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
  (* Clamped to the hardware: an oversubscribed pool would time the
     thrashing, not the pooled build. *)
  let pooled_jobs = DPool.clamp_jobs ~warn:false 4 in
  let pooled, bulk_pooled_s =
    DPool.with_pool ~jobs:pooled_jobs (fun pool -> C.timed (fun () -> Cq.of_sorted ?pool ~dim:2 pts))
  in
  if Cq.size bulk <> Cq.size per_key || Cq.size pooled <> Cq.size per_key then
    failwith "exp_multid: build race produced different trees";
  { br_n = n; per_key_s; bulk_s; bulk_pooled_s; pooled_jobs;
    speedup = per_key_s /. Float.max 1e-9 bulk_s }

(* ---------------- harness ---------------- *)

let json_of_row r =
  let churn, churn_s =
    match r.churn with
    | None -> ("", "")
    | Some c ->
        ( Printf.sprintf "     \"churn_ops\": %d, \"churn_messages\": %d, \"final_size\": %d,\n"
            c.ops c.churn_messages c.final_size,
          Printf.sprintf ", \"churn_s\": %.6f" c.t_churn )
  in
  Printf.sprintf
    "    {\"structure\": \"%s\", \"n\": %d, \"queries\": %d, \"scans\": %d, \"batch\": %d, \
     \"messages\": %d, \"mem_total\": %d, \"size\": %d,\n\
     %s\
    \     \"timing\": {\"jobs\": %d, \"build_s\": %.6f, \"query_s\": %.6f, \"scan_s\": %.6f, \
     \"update_s\": %.6f%s}}"
    r.structure r.n r.queries r.scans r.batch r.messages r.mem_total r.size churn r.jobs
    r.times.t_build r.times.t_queries r.times.t_scans r.times.t_updates churn_s

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
  C.section
    "Multi-dimensional fast path: bulk build, batch queries + scans, batch updates, churn (E21)";
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
        List.concat_map
          (fun n -> sweep (RPoints.run ~seed (points_inputs ~seed ~n ~nq ~nscan)))
          tree_sizes;
        List.concat_map
          (fun n -> sweep (RStrings.run ~seed (strings_inputs ~seed ~n ~nq ~nscan)))
          tree_sizes;
        List.concat_map
          (fun n ->
            sweep
              (RSegments.run ~seed
                 (segments_inputs ~seed ~n ~nq:(min nq 500) ~nscan:(min nscan 200))))
          trap_sizes;
      ]
  in
  if not !identical then failwith "exp_multid: answers diverged across the jobs sweep";
  let tbl =
    Skipweb_util.Tables.create
      ~title:"multi-d mixed workload: build / query / scan / update wall clock, per jobs"
      ~columns:
        [
          "structure"; "n"; "jobs"; "build (s)"; "q (s)"; "scan (s)"; "upd (s)"; "churn (s)";
          "messages"; "mem"; "churn msgs";
        ]
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
          (match r.churn with Some c -> Printf.sprintf "%.3f" c.t_churn | None -> "-");
          string_of_int r.messages;
          string_of_int r.mem_total;
          (match r.churn with Some c -> string_of_int c.churn_messages | None -> "-");
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
