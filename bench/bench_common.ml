(* Shared plumbing for the experiment harness: size sweeps, seed handling,
   and the table format every experiment prints.

   Every experiment prints measured series alongside the paper's predicted
   asymptotic shape and a least-squares fitted shape, so "does the shape
   hold" is visible directly in the output. *)

module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool

type config = {
  sizes : int list;
  queries : int;
  updates : int;
  seeds : int list;
  quick : bool;
  jobs : int;  (* domains used for parallel query and batch-write phases *)
}

let default_config =
  {
    sizes = [ 256; 512; 1024; 2048; 4096; 8192 ];
    queries = 150;
    updates = 30;
    seeds = [ 1; 2; 3 ];
    quick = false;
    jobs = 1;
  }

let quick_config =
  { sizes = [ 256; 1024 ]; queries = 60; updates = 10; seeds = [ 1 ]; quick = true; jobs = 1 }

(* Run [f] with the pool the config asks for (None when jobs <= 1), and
   shut the pool down afterwards. Experiments scope their pool to one
   [run] call so a crashed experiment never leaks domains. *)
let with_pool (cfg : config) f = Pool.with_pool ~jobs:cfg.jobs f

let log2f n = Float.log (float_of_int n) /. Float.log 2.0

(* ⌈log₂ n⌉, at least 1: the experiments' M = Θ(log n) memory targets. *)
let log2i = Skipweb_roster.Roster.log2i

(* One experiment table: rows are methods/workloads, columns are sizes,
   plus the fitted growth shape and the paper's claim. *)
let print_shape_table ~title ~sizes rows =
  let t =
    Tables.create ~title
      ~columns:
        ([ "series" ] @ List.map (fun n -> Printf.sprintf "n=%d" n) sizes @ [ "fitted shape"; "paper" ])
  in
  List.iter
    (fun (label, series, paper) ->
      let cells = List.map (fun v -> Tables.cell_float v) series in
      let fit =
        if List.length series >= 2 then
          Stats.Fit.report (List.map2 (fun n v -> (float_of_int n, v)) sizes series)
        else "n/a"
      in
      Tables.add_row t (label :: cells @ [ fit; paper ]))
    rows;
  Tables.print t

(* Per-seed measurements, optionally fanned out over a pool: each seed
   builds its own structure and network, so seed replicas are trivially
   independent. [Pool.parallel_map] preserves index order, so the mean is
   folded in the same order as the sequential map — bit-identical. *)
let map_seeds ?pool seeds f =
  match pool with
  | None -> List.map f seeds
  | Some p -> Array.to_list (Pool.parallel_map p f (Array.of_list seeds))

(* Mean over seeds of a per-seed measurement. *)
let mean_over_seeds ?pool seeds f = Stats.mean (map_seeds ?pool seeds f)

let mean_int_list xs = Stats.mean (List.map float_of_int xs)

let section name =
  Printf.printf "\n%s\n%s\n\n" name (String.make (String.length name) '=')

(* ---------------- structured metrics output ---------------- *)

(* Every experiment that emits a machine-readable metrics block writes it
   through here so the BENCH_*.json artifacts stay uniform across PRs. *)
let write_json ~file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n%!" file

let json_of_summary = Skipweb_util.Metrics.json_of_summary

(* Observability must not perturb the cost model: run the same seeded
   workload twice, untraced and traced, and insist the simulator's message
   totals agree exactly. [run] must build its structure and rng fresh on
   every call so both runs see identical coin flips. *)
let assert_trace_transparent ~label ~(run : traced:bool -> int) =
  let plain = run ~traced:false in
  let traced = run ~traced:true in
  if plain <> traced then
    failwith
      (Printf.sprintf "%s: tracing changed total_messages (%d untraced vs %d traced)" label plain
         traced);
  Printf.printf "tracing transparency [%s]: OK (%d messages either way)\n" label plain

(* Fresh interior keys for update workloads: drawn from the same domain as
   the stored keys so updates exercise interior paths, not the rightmost
   spine. *)
let fresh_keys ~seed ~count ~bound ~existing =
  let taken = Hashtbl.create (Array.length existing) in
  Array.iter (fun k -> Hashtbl.replace taken k ()) existing;
  let rng = Prng.create (seed + 0x715) in
  let out = Array.make count 0 in
  let filled = ref 0 in
  while !filled < count do
    let k = Prng.int rng bound in
    if not (Hashtbl.mem taken k) then begin
      Hashtbl.replace taken k ();
      out.(!filled) <- k;
      incr filled
    end
  done;
  out
