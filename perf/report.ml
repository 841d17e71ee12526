(* What one run reports: the end-to-end metrics (untraced run) or the
   per-layer metrics (traced run), the output checks, and the run's
   context. The per-layer names here are the ones BENCHMARK.json lists;
   a layer a workload does not run reads 0. *)

let per_layer_names =
  let phases5 = [ "build"; "query"; "scan"; "insert"; "remove" ] in
  let phases6 = phases5 @ [ "repair" ] in
  [
    ("hierarchy.build_s", "s");
    ("hierarchy.build_self_s", "s");
    ("hierarchy.query_us", "us");
    ("hierarchy.query_self_us", "us");
    ("hierarchy.insert_us", "us");
    ("hierarchy.remove_us", "us");
    ("hierarchy.insert_batch_s", "s");
    ("hierarchy.remove_batch_s", "s");
    ("hierarchy.query_batch_s", "s");
    ("hierarchy.scan_batch_s", "s");
    ("hierarchy.repair_s", "s");
    ("hierarchy.levels", "count");
    ("hierarchy.total_storage", "ranges");
    ("hierarchy.ranges_visited_per_query", "ranges");
    ("hierarchy.repair_scanned", "ranges");
    ("hierarchy.repair_repaired", "ranges");
    ("hierarchy.repair_useful_ratio", "ratio");
    ("blocked1d.build_s", "s");
    ("blocked1d.query_us", "us");
    ("blocked1d.query_self_us", "us");
    ("blocked1d.block_hops_per_query", "msgs");
    ("blocked1d.cone_hops_per_query", "msgs");
    ("blocked1d.covering_entries_per_level", "hosts");
    ("blocked1d.replicated_storage", "units");
    ("instances.build_s", "s");
    ("instances.locate_ns", "ns");
    ("instances.refine_ns", "ns");
    ("ordseq.lower_bound_ns", "ns");
    ("ordseq.insert_batch_s", "s");
    ("ordseq.pool_speedup", "x");
    ("cqtree.build_s", "s");
    ("presort.sorted_distinct_s", "s");
    ("cqtree.pool_speedup", "x");
    ("membership.prefix_ns", "ns");
    ("membership.calls_per_build", "count");
    ("placement.hash_ns", "ns");
    ("placement.draws_per_build", "count");
    ("placement.replica_slot_ns", "ns");
    ("network.session_ns_per_hop", "ns");
    ("network.charge_ns", "ns");
    ("network.sessions", "count");
    ("network.total_messages", "msgs");
    ("network.max_host_traffic", "visits");
  ]
  @ List.concat_map
      (fun p ->
        [
          (Printf.sprintf "pool.%s.busy_frac" p, "ratio");
          (Printf.sprintf "pool.%s.tasks" p, "count");
          (Printf.sprintf "pool.%s.idle_s" p, "s");
          (Printf.sprintf "pool.%s.speedup" p, "x");
        ])
      phases5
  @ List.concat_map
      (fun p ->
        [
          (Printf.sprintf "gc.%s.minor_words_per_op" p, "words");
          (Printf.sprintf "gc.%s.promoted_words" p, "words");
          (Printf.sprintf "gc.%s.major_collections" p, "count");
        ])
      phases6
  @ [ ("trace.overhead_frac", "ratio") ]

type t = {
  workload : string;
  seed : int;
  traced : bool;
  jobs : int;
  mutable rounds : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* failed output checks, newest first *)
  mutable end_to_end : (string * float * string) list;
  layer : (string, float) Hashtbl.t;
  mutable extra : (string * float * string) list;  (* printed, not gated *)
}

let create ~workload ~seed ~traced ~jobs =
  {
    workload;
    seed;
    traced;
    jobs;
    rounds = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    end_to_end = [];
    layer = Hashtbl.create 128;
    extra = [];
  }

let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then r.errors <- msg :: r.errors) fmt

let e2e r name value unit = r.end_to_end <- r.end_to_end @ [ (name, value, unit) ]

let extra r name value unit = r.extra <- r.extra @ [ (name, value, unit) ]

let layer r name value =
  if not (List.mem_assoc name per_layer_names) then invalid_arg ("Report.layer: " ^ name);
  Hashtbl.replace r.layer name value

let correct r = r.errors = []

(* The metrics the JSON result carries: end-to-end for an untraced run,
   every per-layer metric for a traced one. *)
let metrics r =
  if r.traced then
    List.map
      (fun (name, unit) ->
        (name, Option.value (Hashtbl.find_opt r.layer name) ~default:0.0, unit))
      per_layer_names
  else r.end_to_end

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let str s = "\"" ^ Skipweb_net.Trace.json_escape s ^ "\""

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str name) (number v) (str unit))
         ms)
  ^ "}"

let result_json r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" (correct r)
    r.attempted r.failed (metrics_json (metrics r))

(* The result file: the same result plus the context that makes runs on
   different commits or machines comparable. *)
let file_json r =
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"trace\":%b,\"jobs\":%d,\"recommended_domains\":%d,\"ocaml_version\":%s,\"rounds\":%d,\"errors\":[%s],\"extra\":%s,\"result\":%s}\n"
    (str r.workload) r.seed r.traced r.jobs
    (Domain.recommended_domain_count ())
    (str Sys.ocaml_version) r.rounds
    (String.concat "," (List.rev_map str r.errors))
    (metrics_json r.extra) (result_json r)

let print r =
  Printf.printf "workload %s seed %d trace %d jobs %d domains %d ocaml %s rounds %d\n" r.workload
    r.seed (Bool.to_int r.traced) r.jobs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version r.rounds;
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %s\n" name (number v) unit) (metrics r);
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %s\n" name (number v) unit) r.extra;
  Printf.printf "attempted %d failed %d\n" r.attempted r.failed;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev r.errors)
