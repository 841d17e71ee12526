(* The wall-clock benchmark: one workload per process.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --smoke

   Prints every metric as "name value unit", then the result as one JSON
   object on the last line of standard output, and writes the result (and,
   for a traced run, the spans) under perf/results/. Exits 1 when an
   output check fails and 2 on a usage error. --smoke runs every workload
   at small sizes twice, traced and untraced, and fails unless both runs
   pass their checks and agree on the exact count metrics. *)

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \       perf.exe --smoke\n\
   workloads: "
  ^ String.concat ", " (List.map fst Workloads.all)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

type args = { workload : string option; seed : int; seconds : float; trace : bool; smoke : bool }

let rec parse a = function
  | [] -> a
  | "--workload" :: w :: rest ->
      if List.mem_assoc w Workloads.all then parse { a with workload = Some w } rest
      else die "unknown workload %S" w
  | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> parse { a with seed } rest
      | None -> die "--seed takes an integer, not %S" s)
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when Float.is_finite seconds && seconds >= 0.0 -> parse { a with seconds } rest
      | _ -> die "--seconds takes a non-negative number, not %S" s)
  | "--trace" :: (("0" | "1") as t) :: rest -> parse { a with trace = t = "1" } rest
  | "--smoke" :: rest -> parse { a with smoke = true } rest
  | arg :: _ -> die "unknown or incomplete argument %S" arg

let run ~workload ~seed ~seconds ~traced ~smoke =
  let f, jobs = List.assoc workload Workloads.all in
  let r =
    Report.create ~workload ~seed ~traced ~jobs:(Skipweb_util.Pool.clamp_jobs ~warn:false jobs)
  in
  let m = f { Workloads.seed; seconds; traced; smoke } r in
  (r, m)

let results_dir = Filename.concat "perf" "results"

let write_file name contents =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "perf"; results_dir ];
  Out_channel.with_open_text (Filename.concat results_dir name) (fun oc ->
      Out_channel.output_string oc contents)

let exact r =
  List.filter
    (fun (name, _, _) -> List.mem name [ "msgs_per_query"; "mem_units_per_key"; "max_host_traffic" ])
    r.Report.end_to_end

let smoke seed =
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      let traced, _ = run ~workload ~seed ~seconds:0.0 ~traced:true ~smoke:true in
      let plain, _ = run ~workload ~seed ~seconds:0.0 ~traced:false ~smoke:true in
      List.iter
        (fun r ->
          List.iter (fun e -> Printf.eprintf "perf --smoke %s: %s\n" workload e) (List.rev r.Report.errors);
          if not (Report.correct r) then ok := false)
        [ traced; plain ];
      if exact traced <> exact plain then begin
        Printf.eprintf "perf --smoke %s: the exact metrics differ between two runs\n" workload;
        ok := false
      end)
    Workloads.all;
  exit (if !ok then 0 else 1)

let () =
  let a =
    parse
      { workload = None; seed = 1; seconds = 15.0; trace = false; smoke = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.smoke then smoke a.seed
  else
    match a.workload with
    | None -> die "--workload is required"
    | Some workload ->
        let r, m = run ~workload ~seed:a.seed ~seconds:a.seconds ~traced:a.trace ~smoke:false in
        let stem = Printf.sprintf "%s-seed%d" workload a.seed in
        write_file (Printf.sprintf "%s-trace%d.json" stem (Bool.to_int a.trace)) (Report.file_json r);
        if a.trace then write_file (stem ^ "-spans.json") (Meter.spans_json m);
        Report.print r;
        print_endline (Report.result_json r);
        exit (if Report.correct r then 0 else 1)
