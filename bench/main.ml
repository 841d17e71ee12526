(* The experiment harness: regenerates every table, figure, lemma and
   theorem claim of the skip-webs paper (see DESIGN.md's experiment index
   and EXPERIMENTS.md for the measured-vs-paper discussion).

   Usage:
     dune exec bench/main.exe                 # all experiments, default sizes
     dune exec bench/main.exe -- --quick      # reduced sizes (CI-friendly)
     dune exec bench/main.exe -- table1 lemmas   # selected experiments only
                                              # (an unknown name or flag
                                              # exits 2)
     dune exec bench/main.exe -- --jobs 4     # parallel read + write paths:
                                              # query phases, seed replicas
                                              # and the scale bench's bulk
                                              # load / batch writes run on 4
                                              # domains (results are
                                              # bit-identical to --jobs 1)

   Experiments: queries, table1, lemmas, theorem2, updates, figures,
   congestion, bucket, ablations, scale, churn, serving, trace, multid.

   The harness reads no clock: every BENCH_*.json it writes is a
   function of the seed and the sizes, the same for any --jobs.
   Wall-clock time is measured by perf/ (perf/README.md). *)

let experiments =
  [
    ("queries", fun cfg -> Exp_queries.run cfg);
    ("table1", fun cfg -> Exp_table1.run cfg);
    ("lemmas", fun cfg -> Exp_lemmas.run cfg);
    ("theorem2", fun cfg -> Exp_theorem2.run cfg);
    ("updates", fun cfg -> Exp_updates.run cfg);
    ("figures", fun cfg -> Exp_figures.run cfg);
    ("congestion", fun cfg -> Exp_congestion.run cfg);
    ("bucket", fun cfg -> Exp_bucket.run cfg);
    ("ablations", fun cfg -> Exp_ablations.run cfg);
    ("scale", fun cfg -> Exp_scale.run cfg);
    ("churn", fun cfg -> Exp_churn.run cfg);
    ("serving", fun cfg -> Exp_serving.run cfg);
    ("trace", fun cfg -> Exp_trace.run cfg);
    ("multid", fun cfg -> Exp_multid.run cfg);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* --jobs N: domains for the parallel read and write paths (query
     phases, seed replicas, bulk load and batch churn). The flag's value
     is consumed here so the experiment selection below never mistakes the
     N for an experiment name. *)
  let jobs, args =
    let rec take acc = function
      | "--jobs" :: n :: rest -> (
          match int_of_string_opt n with
          | Some j when j >= 1 -> (Skipweb_util.Pool.clamp_jobs j, List.rev_append acc rest)
          | Some _ | None ->
              Printf.eprintf "error: --jobs expects a positive integer, got %S\n" n;
              exit 2)
      | [ "--jobs" ] ->
          Printf.eprintf "error: --jobs expects a value\n";
          exit 2
      | a :: rest -> take (a :: acc) rest
      | [] -> (1, List.rev acc)
    in
    take [] args
  in
  let flags, selected = List.partition (String.starts_with ~prefix:"--") args in
  let bad_flags = List.filter (fun f -> f <> "--quick") flags in
  let unknown = List.filter (fun s -> not (List.mem_assoc s experiments)) selected in
  if bad_flags <> [] || unknown <> [] then begin
    List.iter (fun f -> Printf.eprintf "error: unknown flag %S\n" f) bad_flags;
    List.iter (fun s -> Printf.eprintf "error: unknown experiment %S\n" s) unknown;
    Printf.eprintf "flags: --quick --jobs N; experiments: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 2
  end;
  let cfg = if quick then Bench_common.quick_config else Bench_common.default_config in
  let cfg = { cfg with Bench_common.jobs } in
  Printf.printf
    "skip-webs reproduction harness — sizes: %s, %d queries, %d updates, %d seed(s), %d job(s)\n"
    (String.concat "," (List.map string_of_int cfg.Bench_common.sizes))
    cfg.Bench_common.queries cfg.Bench_common.updates
    (List.length cfg.Bench_common.seeds) cfg.Bench_common.jobs;
  let want name = selected = [] || List.mem name selected in
  List.iter (fun (name, f) -> if want name then f cfg) experiments
