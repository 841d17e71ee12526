(* Layer replays for the traced run: each layer's public functions called
   again, on their own, with the workload's inputs, so a span's time can
   be split into the layers it contains. Every result is a mean time per
   call; [Sys.opaque_identity] keeps the measured calls alive. *)

module Network = Skipweb_net.Network
module Placement = Skipweb_net.Placement
module Trace = Skipweb_net.Trace
module Membership = Skipweb_util.Membership
module Prng = Skipweb_util.Prng

let now = Meter.now

(* Membership.prefix for every (id, level) pair a build of [ids] elements
   over [levels] levels touches. *)
let membership_prefix_ns ~seed ~ids ~levels =
  let v = Membership.create ~seed in
  let acc = ref 0 in
  let t0 = now () in
  for id = 0 to ids - 1 do
    for len = 0 to levels - 1 do
      acc := !acc lxor Membership.prefix v ~id ~len
    done
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. float_of_int (max 1 (ids * levels))

(* One placement hash per charged copy. *)
let hash_ns ~seed ~draws =
  let acc = ref 0 in
  let t0 = now () in
  for i = 0 to draws - 1 do
    acc := !acc lxor Prng.hash3 seed (i lsr 4) i
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. float_of_int (max 1 draws)

(* The per-origin cache slot choice for every (origin, level) pair. *)
let replica_slot_ns ~seed ~origins ~levels ~k =
  let acc = ref 0 in
  let t0 = now () in
  Array.iter
    (fun origin ->
      for level = 0 to levels - 1 do
        acc := !acc + Placement.replica_slot ~seed ~origin ~level ~k
      done)
    origins;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. float_of_int (max 1 (Array.length origins * levels))

(* One memory charge per charged copy, spread over the hosts. *)
let charge_ns ~hosts ~draws =
  let net = Network.create ~hosts in
  let t0 = now () in
  for i = 0 to draws - 1 do
    Network.charge_memory net ((i * 0x9e3779b1) land max_int mod hosts) 1
  done;
  (now () -. t0) *. 1e9 /. float_of_int (max 1 draws)

(* The host path of each traced query: its start host and every hop's
   target. A query that never left its start host has no hops and is
   skipped. *)
let paths traces =
  List.filter_map
    (fun tr ->
      match
        List.filter_map
          (function Trace.Hop { src; dst; _ } -> Some (src, dst) | _ -> None)
          (Trace.events tr)
      with
      | [] -> None
      | (src, _) :: _ as hops -> Some (src, Array.of_list (List.map snd hops)))
    traces

(* Replay the traced queries' sessions on a fresh network: start, one
   goto per hop, finish. *)
let session_ns_per_hop ~hosts traces =
  let ps = paths traces in
  let net = Network.create ~hosts in
  let hops = List.fold_left (fun acc (_, d) -> acc + Array.length d) 0 ps in
  let t0 = now () in
  List.iter
    (fun (start, dsts) ->
      let s = Network.start net start in
      Array.iter (fun h -> Network.goto s h) dsts;
      Network.finish s)
    ps;
  (now () -. t0) *. 1e9 /. float_of_int (max 1 hops)

let count_hops traces label =
  List.fold_left
    (fun acc tr ->
      acc
      + List.length
          (List.filter
             (function Trace.Hop { label = Some l; _ } -> l = label | _ -> false)
             (Trace.events tr)))
    0 traces

(* Mean k over the "replicas=k" notes Blocked1d closes its level spans
   with: how many hosts cover the range a query located at one level. *)
let mean_replicas_note traces =
  let sum = ref 0 and count = ref 0 in
  List.iter
    (fun tr ->
      List.iter
        (function
          | Trace.Span_close { note = Some note; _ } -> (
              match Scanf.sscanf_opt note "replicas=%d" Fun.id with
              | Some k ->
                  sum := !sum + k;
                  incr count
              | None -> ())
          | _ -> ())
        (Trace.events tr))
    traces;
  if !count = 0 then 0.0 else float_of_int !sum /. float_of_int !count

(* The range-structure layer of a hierarchy: its level sets rebuilt from
   the membership prefixes of the build's ids (id i is the i-th key, as
   the hierarchy assigns them), and a query's descent through the sets
   holding its origin replayed as one locate at the top level and one
   refine per level below. *)
module Levels (S : Skipweb_core.Range_structure.S) = struct
  type t = { sets : (int * int, S.t) Hashtbl.t; levels : int; vecs : Membership.t }

  (* Returns the level sets and the seconds spent inside [S.build]. *)
  let build ~seed ~levels keys =
    let vecs = Membership.create ~seed in
    let sets = Hashtbl.create 1024 in
    let spent = ref 0.0 in
    for level = 0 to levels - 1 do
      let buckets = Hashtbl.create 64 in
      Array.iteri
        (fun id k ->
          let b = Membership.prefix vecs ~id ~len:level in
          Hashtbl.replace buckets b (k :: Option.value (Hashtbl.find_opt buckets b) ~default:[]))
        keys;
      Hashtbl.iter
        (fun b ks ->
          let arr = Array.of_list ks in
          let t0 = now () in
          let s = S.build arr in
          spent := !spent +. (now () -. t0);
          Hashtbl.replace sets (level, b) s)
        buckets
    done;
    ({ sets; levels; vecs }, !spent)

  (* Mean nanoseconds of the top-level locate and of one refine step, over
     the queries with their origins. *)
  let descent_ns t queries origins =
    let locate = ref 0.0 and refine = ref 0.0 in
    Array.iteri
      (fun i q ->
        let origin = origins.(i) in
        let chain =
          Array.init t.levels (fun l ->
              Hashtbl.find t.sets (l, Membership.prefix t.vecs ~id:origin ~len:l))
        in
        let top = t.levels - 1 in
        let t0 = now () in
        let loc, _ = S.locate chain.(top) q in
        let t1 = now () in
        let here = ref loc in
        for l = top - 1 downto 0 do
          let loc', _ = S.refine chain.(l) ~from:(S.describe chain.(l + 1) !here) q in
          here := loc'
        done;
        let t2 = now () in
        ignore (Sys.opaque_identity !here);
        locate := !locate +. (t1 -. t0);
        refine := !refine +. (t2 -. t1))
      queries;
    let nq = float_of_int (max 1 (Array.length queries)) in
    (!locate *. 1e9 /. nq, !refine *. 1e9 /. (nq *. float_of_int (max 1 (t.levels - 1))))
end
