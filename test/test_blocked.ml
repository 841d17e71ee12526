(* Routing pins for the blocked 1-d skip-web (§2.4.1): which host every
   level of a query lands on is the message model, so per-query messages,
   per-host traffic and answers are a contract, not an implementation
   detail. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module B1 = Skipweb_core.Blocked1d
module W = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool

let n = 4096
let keys = W.distinct_ints ~seed:5 ~n ~bound:(100 * n)

(* Every fourth probe is a stored key, so exact hits (node ranges) and
   gaps (link ranges) both route. *)
let probes ~seed count =
  let rng = Prng.create seed in
  Array.init count (fun i -> if i mod 4 = 0 then keys.(Prng.int rng n) else Prng.int rng (100 * n))

let opt = function None -> min_int | Some x -> x

(* A fresh structure and network per stage, so stages cannot leak traffic
   into each other. With [kill], the stage's own walks ([qs] from [seed])
   run once as a warm-up and the host they visited most dies before the
   stage runs; with r = 1 some walks then raise [Host_dead]. *)
let fresh ~m ~r ~cache ~kill ~seed qs =
  let net = Network.create ~hosts:n in
  let cache_levels, cache_replicas = if cache then (2, 3) else (0, 1) in
  let b = B1.build ~net ~seed:77 ~m ~r ~cache_levels ~cache_replicas keys in
  if kill then begin
    let rng = Prng.create seed in
    Array.iter (fun q -> ignore (B1.query b ~rng q)) qs;
    let busiest = ref 0 in
    for h = 1 to n - 1 do
      if Network.traffic net h > Network.traffic net !busiest then busiest := h
    done;
    Network.reset_traffic net;
    Network.kill net !busiest
  end;
  (net, b)

let mix acc x = Prng.hash2 acc x

let answer acc (r : B1.search_result) =
  List.fold_left mix acc [ r.B1.messages; opt r.B1.predecessor; opt r.B1.successor; opt r.B1.nearest ]

(* The stage's own digest, then every host's traffic and the total. *)
let with_traffic net acc =
  let acc = ref acc in
  for h = 0 to n - 1 do
    acc := mix !acc (Network.traffic net h)
  done;
  mix !acc (Network.total_messages net)

let stage_query ~m ~r ~cache ~kill =
  let qs = probes ~seed:0x52 200 in
  let net, b = fresh ~m ~r ~cache ~kill ~seed:0x51 qs in
  let rng = Prng.create 0x51 in
  let step acc q =
    match B1.query b ~rng q with res -> answer acc res | exception Network.Host_dead _ -> mix acc (-1)
  in
  with_traffic net (Array.fold_left step 0 qs)

(* A batch that meets a dead walk raises as a whole; its digest is then
   just the marker, identical at every jobs count. *)
let stage_batch ~jobs ~m ~r ~cache ~kill =
  let qs = probes ~seed:0x62 200 in
  let net, b = fresh ~m ~r ~cache ~kill ~seed:0x61 qs in
  Pool.with_pool ~jobs @@ fun pool ->
  match B1.query_batch ?pool b ~rng:(Prng.create 0x61) qs with
  | rs -> with_traffic net (Array.fold_left answer 0 rs)
  | exception Network.Host_dead _ -> -1

(* Short and long ranges alternate; a range's locate is a query from lo. *)
let stage_range ~m ~r ~cache ~kill =
  let pick = Prng.create 0x72 in
  let los = Array.init 20 (fun _ -> Prng.int pick (100 * n)) in
  let his = Array.mapi (fun i lo -> lo + Prng.int pick (if i mod 2 = 0 then 2_000 else 60_000)) los in
  let net, b = fresh ~m ~r ~cache ~kill ~seed:0x71 los in
  let rng = Prng.create 0x71 in
  let acc = ref 0 in
  Array.iteri
    (fun i lo ->
      match B1.range b ~rng ~lo ~hi:his.(i) with
      | res -> acc := List.fold_left mix (mix !acc res.B1.messages) res.B1.keys
      | exception Network.Host_dead _ -> acc := mix !acc (-1))
    los;
  with_traffic net !acc

let configs =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun r ->
          List.concat_map (fun cache -> List.map (fun kill -> (m, r, cache, kill)) [ false; true ]) [ false; true ])
        [ 1; 2 ])
    [ 16; 32; 48 ]

let digest_rows () =
  List.map
    (fun (m, r, cache, kill) ->
      [
        stage_query ~m ~r ~cache ~kill;
        stage_batch ~jobs:1 ~m ~r ~cache ~kill;
        stage_batch ~jobs:2 ~m ~r ~cache ~kill;
        stage_range ~m ~r ~cache ~kill;
      ])
    configs

let pinned_digest =
  [
    [ 444521754856149487; 2804059307125118398; 2804059307125118398; 3214659563859321959 ];
    [ 4091205802469208628; -1; -1; 913397046398730379 ];
    [ 2650997981275144548; 430450391363369486; 430450391363369486; 1335855803335927584 ];
    [ 3695575994406554003; 298051490140787245; 298051490140787245; 1871749131665687884 ];
    [ 444521754856149487; 2804059307125118398; 2804059307125118398; 3214659563859321959 ];
    [ 198694611366756043; 2664679830880346196; 2664679830880346196; 4459412089644336502 ];
    [ 2650997981275144548; 430450391363369486; 430450391363369486; 1335855803335927584 ];
    [ 2364457636068636744; 298051490140787245; 298051490140787245; 2380409960967008064 ];
    [ 3916378070524691208; 2642108702707757597; 2642108702707757597; 2915544981639463173 ];
    [ 1558831423267722580; -1; -1; 1615302206184702914 ];
    [ 1422896520752337255; 3140407181303345539; 3140407181303345539; 4183266668183559914 ];
    [ 682375328237310277; -1; -1; 3556427878500596939 ];
    [ 3916378070524691208; 2642108702707757597; 2642108702707757597; 2915544981639463173 ];
    [ 2591463695881118908; 1791744797026954548; 1791744797026954548; 1036185688089521610 ];
    [ 1422896520752337255; 3140407181303345539; 3140407181303345539; 4183266668183559914 ];
    [ 2397040435248958357; 434111061816993810; 434111061816993810; 3556427878500596939 ];
    [ 195099516580470532; 3508379144315296981; 3508379144315296981; 4102507370773758881 ];
    [ 3683480539790700143; -1; -1; 1378104971282938711 ];
    [ 2967888644889010538; 3368970851805033531; 3368970851805033531; 669150178005001461 ];
    [ 1586182137456704476; -1; -1; 1067681262782661834 ];
    [ 195099516580470532; 3508379144315296981; 3508379144315296981; 4102507370773758881 ];
    [ 942372508475795891; 4315324692991704596; 4315324692991704596; 1438631478133226981 ];
    [ 2967888644889010538; 3368970851805033531; 3368970851805033531; 669150178005001461 ];
    [ 2046149454162714419; 3288197024413126421; 3288197024413126421; 1960372429785188457 ];
  ]

(* At n = 4096 (top level 12) m = 16 and m = 48 make the top level basic
   and m = 32 makes it a cone level; the cache window covers basic level
   0 with three read copies per group. *)
let test_pinned_routing_digest () =
  List.iter2
    (fun (m, r, cache, kill) (pinned, row) ->
      Alcotest.(check (list int))
        (Printf.sprintf "m=%d r=%d cache=%b kill=%b [query; batch j1; batch j2; range]" m r cache kill)
        pinned row)
    configs
    (List.combine pinned_digest (digest_rows ()))

(* Tracing only observes: a traced query answers, pays and fails exactly
   like an untraced one from the same origin, here at m = 32 (a cone top
   level) with the level-0 groups cached and the busiest host dead, so
   some walks raise [Host_dead]. The spans and hop labels themselves are
   pinned by a digest of every rendered trace. *)
let test_traced_equals_untraced () =
  let qs = probes ~seed:0x82 200 in
  let _, b = fresh ~m:32 ~r:1 ~cache:true ~kill:true ~seed:0x81 qs in
  let traced_rng = Prng.create 0x81 and untraced_rng = Prng.create 0x81 in
  let run trace rng q =
    match B1.query ?trace b ~rng q with
    | res -> Ok (res.B1.predecessor, res.B1.successor, res.B1.nearest, res.B1.messages)
    | exception Network.Host_dead h -> Error h
  in
  let renders = Buffer.create 4096 in
  let failed = ref 0 in
  Array.iteri
    (fun i q ->
      let tr = Trace.create () in
      let traced = run (Some tr) traced_rng q in
      if traced <> run None untraced_rng q then Alcotest.failf "query %d: traced and untraced differ" i;
      (match traced with Error _ -> incr failed | Ok _ -> Buffer.add_string renders (Trace.render tr)))
    qs;
  Alcotest.(check bool) "some walks hit the dead host" true (!failed > 0);
  Alcotest.(check string) "trace renders" "f8993fb159495e90f2876532cdbfaa99" (Digest.to_hex (Digest.string (Buffer.contents renders)))

(* The ground set against a sorted-set model under seeded single-key
   updates: duplicates and absent keys (both no-ops costing 0), sizes
   0 -> 1 -> 0, a random walk over a small key space, then a drain back
   to empty. After every step: the invariants, the size, each probe's
   predecessor (largest key <= q), successor (smallest key >= q) and
   nearest (the predecessor on ties), and the keys of two ranges. *)
module Model = Set.Make (Int)

let test_ground_set_model () =
  let bound = 120 in
  let net = Network.create ~hosts:16 in
  let b = B1.build ~net ~seed:9 ~m:8 [||] in
  let rng = Prng.create 0x51 in
  let model = ref Model.empty in
  let check step =
    let what fmt = Printf.ksprintf (fun s -> Printf.sprintf "step %d: %s" step s) fmt in
    B1.check_invariants b;
    Alcotest.(check int) (what "size") (Model.cardinal !model) (B1.size b);
    for q = -1 to bound do
      if q mod 7 = 0 || Model.mem q !model then begin
        let res = B1.query b ~rng q in
        let pred = Model.find_last_opt (fun k -> k <= q) !model in
        let succ = Model.find_first_opt (fun k -> k >= q) !model in
        let nearest =
          match (pred, succ) with
          | Some p, Some s when q - p > s - q -> succ
          | None, _ -> succ
          | _ -> pred
        in
        Alcotest.(check (option int)) (what "predecessor of %d" q) pred res.B1.predecessor;
        Alcotest.(check (option int)) (what "successor of %d" q) succ res.B1.successor;
        Alcotest.(check (option int)) (what "nearest to %d" q) nearest res.B1.nearest
      end
    done;
    List.iter
      (fun (lo, hi) ->
        let want = Model.elements (Model.filter (fun k -> lo <= k && k <= hi) !model) in
        Alcotest.(check (list int)) (what "range [%d, %d]" lo hi) want (B1.range b ~rng ~lo ~hi).B1.keys)
      [ (0, bound); (step mod bound, (step mod bound) + 17) ]
  in
  let step = ref 0 in
  let apply op k =
    let present = Model.mem k !model in
    let cost, noop =
      match op with
      | `Insert ->
          model := Model.add k !model;
          (B1.insert b k, present)
      | `Delete ->
          model := Model.remove k !model;
          (B1.delete b k, not present)
    in
    Alcotest.(check bool) (Printf.sprintf "step %d: cost 0 iff no-op" !step) noop (cost = 0);
    incr step;
    check !step
  in
  check 0;
  List.iter
    (fun (op, k) -> apply op k)
    [ (`Delete, 5); (`Insert, 5); (`Insert, 5); (`Delete, 6); (`Delete, 5); (`Delete, 5) ];
  for _ = 1 to 300 do
    let k =
      if Prng.int rng 3 = 0 && not (Model.is_empty !model) then
        List.nth (Model.elements !model) (Prng.int rng (Model.cardinal !model))
      else Prng.int rng bound
    in
    apply (if Prng.int rng 5 < 3 then `Insert else `Delete) k
  done;
  List.iter (fun k -> apply `Delete k) (Model.elements !model);
  Alcotest.(check int) "drained" 0 (B1.size b)

let suite =
  [
    Alcotest.test_case "pinned routing digest" `Quick test_pinned_routing_digest;
    Alcotest.test_case "traced = untraced under a dead host" `Quick test_traced_equals_untraced;
    Alcotest.test_case "ground set = sorted-set model" `Quick test_ground_set_model;
  ]
