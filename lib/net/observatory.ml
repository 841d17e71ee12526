(* The congestion observatory: stateless reads over the network's exact
   per-host traffic counters. Where Trace answers "where did *one*
   operation's messages go", these answer "where does a *workload's* load
   go" — which hosts the upper levels concentrate traffic on and how
   unequal the per-host load is. Run a phase, then read: nothing is fed
   or estimated, so every number is exact for any jobs count. *)

module Stats = Skipweb_util.Stats

type congestion = {
  live : int;
  total_traffic : int;  (* visits over live hosts *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  gini : float;
}

(* Gini coefficient of a non-negative load vector: 0 = perfectly even,
   -> 1 = all load on one host. Computed from the sorted vector as
   (2 sum_i i x_i) / (n sum x) - (n + 1)/n with 1-based i. *)
let gini xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let sum = Array.fold_left ( +. ) 0.0 a in
    if sum <= 0.0 then 0.0
    else begin
      let weighted = ref 0.0 in
      Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) a;
      let nf = float_of_int n in
      (2.0 *. !weighted /. (nf *. sum)) -. ((nf +. 1.0) /. nf)
    end
  end

(* Snapshot of the network's per-host traffic over *live* hosts: dead
   hosts serve nothing, so including them would understate inequality.
   O(H log H) over the per-host array the network already carries — no
   per-operation state. *)
let congestion_of net =
  let loads = ref [] in
  let live = ref 0 in
  for h = Network.host_count net - 1 downto 0 do
    if Network.alive net h then begin
      incr live;
      loads := float_of_int (Network.traffic net h) :: !loads
    end
  done;
  let a = Array.of_list !loads in
  Array.sort compare a;
  let total = Array.fold_left (fun acc x -> acc + int_of_float x) 0 a in
  let n = Array.length a in
  {
    live = !live;
    total_traffic = total;
    mean = (if n = 0 then 0.0 else float_of_int total /. float_of_int n);
    p50 = (if n = 0 then 0.0 else Stats.percentile a 0.5);
    p90 = (if n = 0 then 0.0 else Stats.percentile a 0.9);
    p99 = (if n = 0 then 0.0 else Stats.percentile a 0.99);
    max = (if n = 0 then 0.0 else a.(n - 1));
    gini = gini a;
  }

(* [a] ranks ahead of [b]: more visits, ties to the lower host. *)
let ahead (ha, va) (hb, vb) = va > vb || (va = vb && ha < hb)

(* Exact top-k over live hosts by partial selection: a k-entry heap whose
   root is the weakest entry kept so far, so each host costs one
   comparison against the root plus O(log k) on replacement. *)
let hot_hosts net ~k =
  if k < 1 then invalid_arg "Observatory.hot_hosts: k must be >= 1";
  let cap = min k (Network.live_hosts net) in
  let heap = Array.make cap (0, 0) in
  let size = ref 0 in
  let swap i j =
    let e = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- e
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && ahead heap.(p) heap.(i) then begin
      swap i p;
      sift_up p
    end
  in
  let rec sift_down i =
    let weakest j m = if j < cap && ahead heap.(m) heap.(j) then j else m in
    let m = weakest ((2 * i) + 2) (weakest ((2 * i) + 1) i) in
    if m <> i then begin
      swap i m;
      sift_down m
    end
  in
  for h = 0 to Network.host_count net - 1 do
    if Network.alive net h then begin
      let e = (h, Network.traffic net h) in
      if !size < cap then begin
        heap.(!size) <- e;
        sift_up !size;
        incr size
      end
      else if ahead e heap.(0) then begin
        heap.(0) <- e;
        sift_down 0
      end
    end
  done;
  List.sort (fun a b -> if ahead a b then -1 else 1) (Array.to_list heap)

(* Share of total live-host traffic served by the [m] busiest live hosts —
   the replica-aware flattening metric: a level cache does not change the
   total (queries still visit the same number of ranges), it divides the
   busiest hosts' share by the replica count, which is exactly what this
   ratio shows falling. 0 when there is no traffic. *)
let top_share net ~m =
  let top = List.fold_left (fun acc (_, v) -> acc + v) 0 (hot_hosts net ~k:m) in
  let total = ref 0 in
  for h = 0 to Network.host_count net - 1 do
    if Network.alive net h then total := !total + Network.traffic net h
  done;
  if !total = 0 then 0.0 else float_of_int top /. float_of_int !total

let congestion_to_json c =
  Printf.sprintf
    "{\"live_hosts\": %d, \"total_traffic\": %d, \"mean\": %g, \"p50\": %g, \"p90\": %g, \
     \"p99\": %g, \"max\": %g, \"gini\": %.6f}"
    c.live c.total_traffic c.mean c.p50 c.p90 c.p99 c.max c.gini
