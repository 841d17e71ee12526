(* Tests for Skipweb_net: the message-counting cost model and the session
   trace layer. *)

module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Obs = Skipweb_net.Observatory

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_create_bounds () =
  Alcotest.check_raises "zero hosts" (Invalid_argument "Network.create: need at least one host")
    (fun () -> ignore (Network.create ~hosts:0));
  checki "host count" 5 (Network.host_count (Network.create ~hosts:5))

let test_session_counts_crossings () =
  let net = Network.create ~hosts:4 in
  let s = Network.start net 0 in
  checki "no messages at start" 0 (Network.messages s);
  Network.goto s 0;
  checki "same host is free" 0 (Network.messages s);
  Network.goto s 1;
  checki "crossing costs one" 1 (Network.messages s);
  Network.goto s 1;
  checki "staying is free" 0 (Network.messages s - 1);
  Network.goto s 2;
  Network.goto s 3;
  Network.goto s 0;
  checki "four crossings total" 4 (Network.messages s);
  checki "current host" 0 (Network.current s)

let test_total_messages_accumulate () =
  let net = Network.create ~hosts:3 in
  let s1 = Network.start net 0 in
  Network.goto s1 1;
  Network.finish s1;
  let s2 = Network.start net 2 in
  Network.goto s2 0;
  Network.goto s2 1;
  Network.finish s2;
  checki "global total" 3 (Network.total_messages net);
  checki "sessions" 2 (Network.sessions_started net)

let test_traffic_tracking () =
  let net = Network.create ~hosts:3 in
  let s = Network.start net 0 in
  Network.goto s 1;
  Network.goto s 2;
  Network.goto s 1;
  Network.finish s;
  checki "host 1 visited twice" 2 (Network.traffic net 1);
  checki "host 0 visited once (start)" 1 (Network.traffic net 0);
  checki "max traffic" 2 (Network.max_traffic net);
  Network.reset_traffic net;
  checki "reset clears traffic" 0 (Network.traffic net 1);
  checki "reset clears totals" 0 (Network.total_messages net)

(* Pins the deferred-commit contract behind the parallel read path: a
   session buffers its messages and visits locally and charges the
   network only at [finish], so concurrent sessions never race on the
   shared counters and the committed totals are plain sums. *)
let test_deferred_commit () =
  let net = Network.create ~hosts:4 in
  let s = Network.start net 0 in
  Network.goto s 1;
  Network.goto s 2;
  checki "session sees its own cost" 2 (Network.messages s);
  checki "network sees nothing before finish" 0 (Network.total_messages net);
  checki "no traffic before finish" 0 (Network.traffic net 1);
  checki "no session counted before finish" 0 (Network.sessions_started net);
  Network.finish s;
  checki "messages committed" 2 (Network.total_messages net);
  checki "start host visit committed" 1 (Network.traffic net 0);
  checki "hop visits committed" 1 (Network.traffic net 1);
  checki "session counted" 1 (Network.sessions_started net);
  (* finish is idempotent: a second call commits nothing more. *)
  Network.finish s;
  checki "second finish is a no-op (messages)" 2 (Network.total_messages net);
  checki "second finish is a no-op (traffic)" 1 (Network.traffic net 0);
  checki "second finish is a no-op (sessions)" 1 (Network.sessions_started net);
  (* the session stays readable after finish... *)
  checki "messages readable after finish" 2 (Network.messages s);
  checki "current readable after finish" 2 (Network.current s);
  (* ...but cannot move again. *)
  Alcotest.check_raises "goto after finish"
    (Invalid_argument "Network.goto: session already finished") (fun () -> Network.goto s 3)

let test_memory_accounting () =
  let net = Network.create ~hosts:4 in
  Network.charge_memory net 0 10;
  Network.charge_memory net 1 4;
  Network.charge_memory net 0 (-3);
  checki "memory at 0" 7 (Network.memory net 0);
  checki "max memory" 7 (Network.max_memory net);
  checki "total memory" 11 (Network.total_memory net);
  Alcotest.(check (float 1e-9)) "mean memory" 2.75 (Network.mean_memory net)

(* Pins the documented reset_traffic contract: traffic, total_messages and
   sessions_started are one workload window and reset together; memory
   describes the structure and persists. *)
let test_reset_traffic_resets_sessions () =
  let net = Network.create ~hosts:3 in
  let s = Network.start net 0 in
  Network.goto s 1;
  Network.finish s;
  let s' = Network.start net 2 in
  Network.finish s';
  checki "two sessions before reset" 2 (Network.sessions_started net);
  Network.reset_traffic net;
  checki "sessions reset too" 0 (Network.sessions_started net);
  checki "messages reset" 0 (Network.total_messages net);
  checki "traffic reset" 0 (Network.traffic net 1);
  (* The window restarts cleanly. *)
  let s2 = Network.start net 0 in
  Network.goto s2 1;
  Network.finish s2;
  checki "fresh window counts sessions" 1 (Network.sessions_started net);
  checki "fresh window counts messages" 1 (Network.total_messages net)

(* ------- failure model ------- *)

let test_kill_revive_liveness () =
  let net = Network.create ~hosts:4 in
  checki "all live at creation" 4 (Network.live_hosts net);
  checkb "host 2 alive" true (Network.alive net 2);
  Network.kill net 2;
  checkb "host 2 dead" false (Network.alive net 2);
  checki "live count drops" 3 (Network.live_hosts net);
  Network.kill net 2;
  checki "kill is idempotent" 3 (Network.live_hosts net);
  Network.revive net 2;
  checkb "host 2 back" true (Network.alive net 2);
  checki "live count restored" 4 (Network.live_hosts net);
  Network.revive net 2;
  checki "revive is idempotent" 4 (Network.live_hosts net)

let test_cannot_kill_last_live_host () =
  let net = Network.create ~hosts:2 in
  Network.kill net 0;
  Alcotest.check_raises "last live host protected"
    (Invalid_argument "Network.kill: cannot kill the last live host") (fun () ->
      Network.kill net 1)

let test_dead_host_rejects_sessions () =
  let net = Network.create ~hosts:3 in
  Network.kill net 1;
  (match Network.start net 1 with
  | exception Network.Host_dead 1 -> ()
  | _ -> Alcotest.fail "start on a dead host must raise Host_dead");
  let s = Network.start net 0 in
  Network.goto s 2;
  (match Network.goto s 1 with
  | exception Network.Host_dead 1 -> ()
  | _ -> Alcotest.fail "goto a dead host must raise Host_dead");
  (* The failed hop charged nothing and the session is still usable: it
     stayed where it was and may retry against a live replica. *)
  checki "failed hop not charged" 1 (Network.messages s);
  checki "session stayed put" 2 (Network.current s);
  Network.goto s 0;
  Network.finish s;
  checki "session commits normally after a failed hop" 2 (Network.total_messages net)

(* Pins the live-host denominator semantics of mean_traffic, mean_memory
   and congestion: dead hosts serve nothing, so they must not dilute the
   mean load, and a dead host's stranded memory is unreachable, not
   congested. *)
let test_live_host_stats () =
  let net = Network.create ~hosts:4 in
  let s = Network.start net 0 in
  Network.goto s 1;
  Network.goto s 2;
  Network.goto s 3;
  Network.finish s;
  Alcotest.(check (float 1e-9)) "mean traffic over all hosts" 1.0 (Network.mean_traffic net);
  Network.charge_memory net 0 8;
  Network.charge_memory net 1 20;
  Alcotest.(check (float 1e-9)) "mean memory over all hosts" 7.0 (Network.mean_memory net);
  Alcotest.(check (float 1e-9)) "congestion over all hosts" 45.0 (Network.congestion net ~items:100);
  checki "nothing stranded yet" 0 (Network.stranded_memory net);
  Network.kill net 1;
  Network.kill net 3;
  (* Counters are untouched by kill; only the denominators and the
     max-over-live change. *)
  checki "total memory kept" 28 (Network.total_memory net);
  checki "dead host's memory still recorded" 20 (Network.memory net 1);
  checki "stranded = dead hosts' charges" 20 (Network.stranded_memory net);
  Alcotest.(check (float 1e-9)) "mean traffic over live hosts" 2.0 (Network.mean_traffic net);
  Alcotest.(check (float 1e-9)) "mean memory over live hosts" 14.0 (Network.mean_memory net);
  (* Busiest *live* host is 0 (8 units); host 1's 20 stranded units are
     unreachable. Query starts spread over the 2 live hosts. *)
  Alcotest.(check (float 1e-9)) "congestion over live hosts" 58.0 (Network.congestion net ~items:100);
  checki "max_memory still reports stored state" 20 (Network.max_memory net);
  Network.revive net 1;
  Alcotest.(check (float 1e-9))
    "revive restores the denominator" (28.0 /. 3.0) (Network.mean_memory net);
  checki "revived host's memory reachable again" 20 (Network.memory net 1);
  Network.revive net 3;
  checki "nothing stranded after revives" 0 (Network.stranded_memory net)

(* kill/revive interleaved (sequentially) with memory charges and
   reset_traffic — the failure axis and the workload / charge machinery
   are orthogonal. *)
let test_kill_interleaves_with_charges_and_reset () =
  let net = Network.create ~hosts:3 in
  (* Charges made before and after a kill add up on the dead host. *)
  Network.charge_memory net 1 5;
  Network.charge_memory net 2 3;
  Network.kill net 1;
  Network.charge_memory net 1 2;
  checki "charges land on the dead host" 7 (Network.memory net 1);
  checki "stranded includes post-kill charges" 7 (Network.stranded_memory net);
  (* reset_traffic keeps its meaning across failures: workload counters
     zero, memory (stranded or not) kept, liveness kept. *)
  let s = Network.start net 0 in
  Network.goto s 2;
  Network.finish s;
  Network.reset_traffic net;
  checki "traffic reset" 0 (Network.traffic net 2);
  checki "messages reset" 0 (Network.total_messages net);
  checki "dead host's memory survives reset" 7 (Network.memory net 1);
  checkb "liveness survives reset" false (Network.alive net 1);
  checki "live count survives reset" 2 (Network.live_hosts net);
  (* Sessions in flight across a kill of an *unvisited* host commit
     normally: kill only gates future hops onto the victim. *)
  let s2 = Network.start net 0 in
  Network.goto s2 2;
  Network.kill net 2;
  (* The session already sits on host 2; it can keep working locally and
     commit — the kill is an epoch boundary, not a mid-session abort. *)
  Network.finish s2;
  checki "in-flight session committed" 1 (Network.total_messages net);
  Network.revive net 1;
  Network.revive net 2;
  checki "all hosts back" 3 (Network.live_hosts net)

(* ------- session tracing ------- *)

(* The exact hop sequence of a traced session: one Hop per boundary
   crossing, in order, with labels; same-host gotos record nothing. *)
let test_trace_exact_hop_sequence () =
  let net = Network.create ~hosts:4 in
  let tr = Trace.create () in
  let s = Network.start ~trace:tr net 0 in
  Network.goto s 0;  (* free and unrecorded *)
  Network.goto ~label:"up" s 2;
  Network.goto s 2;  (* free and unrecorded *)
  Network.goto ~label:"down" s 1;
  Network.goto s 3;  (* unlabeled crossing *)
  checki "three messages" 3 (Network.messages s);
  let expected =
    [
      Trace.Hop { src = 0; dst = 2; label = Some "up" };
      Trace.Hop { src = 2; dst = 1; label = Some "down" };
      Trace.Hop { src = 1; dst = 3; label = None };
    ]
  in
  Alcotest.(check bool) "exact hop sequence" true (Trace.events tr = expected);
  checki "total hops = messages" (Network.messages s) (Trace.total_hops tr)

let test_trace_untraced_session_free () =
  let net = Network.create ~hosts:2 in
  let s = Network.start net 0 in
  Network.goto ~label:"ignored" s 1;
  checki "label never affects cost" 1 (Network.messages s)

let test_trace_spans_and_attribution () =
  let net = Network.create ~hosts:8 in
  let tr = Trace.create () in
  let s = Network.start ~trace:tr net 0 in
  Trace.span_open tr ~level:2 "top";
  Network.goto s 1;
  Network.goto s 2;
  (* An inner span without a level inherits the enclosing level. *)
  Trace.span_open tr "inner";
  Network.goto s 3;
  Trace.span_close tr ~note:"inner done" ();
  Trace.span_close tr ();
  Trace.span_open tr ~level:0 "bottom";
  Network.goto s 4;
  Trace.span_close tr ();
  Network.goto s 5;  (* outside every span *)
  Alcotest.(check (list (pair int int)))
    "per-level attribution" [ (0, 1); (2, 3) ] (Trace.per_level_hops tr);
  checki "unattributed" 1 (Trace.unattributed_hops tr);
  checki "everything accounted" (Trace.total_hops tr)
    (1 + List.fold_left (fun acc (_, c) -> acc + c) 0 (Trace.per_level_hops tr));
  (* Render mentions spans, hops and the note. *)
  let r = Trace.render tr in
  let contains needle =
    let nl = String.length needle and hl = String.length r in
    let rec go i = i + nl <= hl && (String.sub r i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "render has span" true (contains "top (level 2)");
  checkb "render has note" true (contains "= inner done");
  checkb "json is an array" true (String.length (Trace.to_json tr) > 2 && (Trace.to_json tr).[0] = '[')

let test_trace_unbalanced_span_rejected () =
  let tr = Trace.create () in
  Alcotest.check_raises "close without open"
    (Invalid_argument "Trace.span_close: no open span") (fun () -> Trace.span_close tr ());
  Trace.span_open tr "a";
  Trace.span_close tr ();
  Alcotest.check_raises "second close without open"
    (Invalid_argument "Trace.span_close: no open span") (fun () -> Trace.span_close tr ())

let test_trace_clear_reuses_buffer () =
  let tr = Trace.create () in
  Trace.span_open tr ~level:1 "x";
  Trace.hop tr ~src:0 ~dst:1 ();
  Trace.clear tr;
  checki "no events after clear" 0 (List.length (Trace.events tr));
  checki "no hops after clear" 0 (Trace.total_hops tr);
  (* clear also forgets open spans. *)
  Alcotest.check_raises "stack cleared" (Invalid_argument "Trace.span_close: no open span")
    (fun () -> Trace.span_close tr ())

let test_memory_survives_traffic_reset () =
  let net = Network.create ~hosts:2 in
  Network.charge_memory net 0 5;
  Network.reset_traffic net;
  checki "memory kept" 5 (Network.memory net 0)

let test_congestion_measure () =
  let net = Network.create ~hosts:10 in
  Network.charge_memory net 3 20;
  Alcotest.(check (float 1e-9)) "congestion = max mem + n/H" 30.0 (Network.congestion net ~items:100)

let test_bad_host_rejected () =
  let net = Network.create ~hosts:2 in
  Alcotest.check_raises "bad host" (Invalid_argument "Network: bad host 2 (H=2)") (fun () ->
      Network.charge_memory net 2 1)

(* ------- congestion observatory ------- *)

(* A network whose host h has served exactly [counts.(h)] visits. *)
let net_with_traffic counts =
  let net = Network.create ~hosts:(Array.length counts) in
  Array.iteri (fun h c -> for _ = 1 to c do Network.finish (Network.start net h) done) counts;
  net

let test_hot_hosts_top1_is_max_traffic () =
  let net = Network.create ~hosts:7 in
  for i = 0 to 19 do
    let s = Network.start net (i mod 7) in
    Network.goto s (i * i mod 7);
    Network.goto s 3;
    Network.finish s
  done;
  match Obs.hot_hosts net ~k:1 with
  | [ (h, v) ] ->
      checki "top-1 visits = max_traffic" (Network.max_traffic net) v;
      checki "top-1 host carries them" v (Network.traffic net h)
  | _ -> Alcotest.fail "expected exactly one entry"

let test_hot_hosts_bounds () =
  let net = net_with_traffic [| 2; 9; 2; 0; 5 |] in
  Network.kill net 1;
  Network.kill net 3;
  checkb "k above the live count lists every live host" true
    (Obs.hot_hosts net ~k:10 = [ (4, 5); (0, 2); (2, 2) ]);
  Alcotest.check_raises "k >= 1" (Invalid_argument "Observatory.hot_hosts: k must be >= 1")
    (fun () -> ignore (Obs.hot_hosts net ~k:0))

let test_top_share_sums_hot_hosts () =
  let counts = [| 3; 0; 7; 7; 1; 4 |] in
  let net = net_with_traffic counts in
  Network.kill net 2;
  let total = Array.fold_left ( + ) 0 counts - counts.(2) in
  for m = 1 to 7 do
    let top = List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.hot_hosts net ~k:m) in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "m = %d" m)
      (float_of_int top /. float_of_int total)
      (Obs.top_share net ~m)
  done;
  Alcotest.(check (float 1e-12)) "no traffic" 0.0 (Obs.top_share (Network.create ~hosts:3) ~m:2)

let test_gini_known_values () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Obs.gini [||]);
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (Obs.gini [| 0.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "perfectly even" 0.0 (Obs.gini [| 5.0; 5.0; 5.0; 5.0 |]);
  (* One host carries everything: G = (n-1)/n = 0.75 for n = 4. *)
  Alcotest.(check (float 1e-9)) "maximal skew" 0.75 (Obs.gini [| 0.0; 0.0; 0.0; 10.0 |]);
  (* Hand-computed: sorted [1;2;3;4], G = 2*30/(4*10) - 5/4 = 0.25. *)
  Alcotest.(check (float 1e-9)) "linear ramp" 0.25 (Obs.gini [| 4.0; 1.0; 3.0; 2.0 |])

let test_congestion_of_live_hosts_only () =
  let net = Network.create ~hosts:4 in
  let s = Network.start net 0 in
  Network.goto s 1;
  Network.goto s 2;
  Network.goto s 1;
  Network.finish s;
  let c = Obs.congestion_of net in
  checki "live" 4 c.Obs.live;
  checki "total over live" 4 c.Obs.total_traffic;
  Alcotest.(check (float 1e-9)) "max" 2.0 c.Obs.max;
  (* Kill the hottest host: the snapshot now describes the survivors. *)
  Network.kill net 1;
  let c = Obs.congestion_of net in
  checki "live after kill" 3 c.Obs.live;
  checki "dead host's visits excluded" 2 c.Obs.total_traffic;
  Alcotest.(check (float 1e-9)) "max over live" 1.0 c.Obs.max

(* One trace shared by several operations sums their attribution: the
   way a workload's sampled per-level load is read. *)
let test_trace_shared_across_operations () =
  let net = Network.create ~hosts:6 in
  let tr = Trace.create () in
  for _ = 1 to 2 do
    let s = Network.start ~trace:tr net 0 in
    Trace.span_open tr ~level:1 "walk";
    Network.goto s 2;
    Network.goto s 3;
    Trace.span_close tr ();
    Network.goto s 4;
    Network.finish s
  done;
  checkb "per-level doubled" true (Trace.per_level_hops tr = [ (1, 4) ]);
  checki "unattributed doubled" 2 (Trace.unattributed_hops tr)

(* hot_hosts is exactly the head of a full sort of the live hosts'
   counters, by descending visits with ties to the lower host. Small
   counts force ties; random kills exercise the live-host filter. *)
let qcheck_hot_hosts_exact =
  QCheck.Test.make ~name:"hot_hosts = head of sorted live counters" ~count:300
    QCheck.(
      triple (list_of_size Gen.(int_range 1 30) (int_range 0 6)) (list small_nat) (int_range 1 40))
    (fun (counts, kills, k) ->
      let counts = Array.of_list counts in
      let hosts = Array.length counts in
      let net = net_with_traffic counts in
      List.iter (fun v -> if Network.live_hosts net > 1 then Network.kill net (v mod hosts)) kills;
      let sorted =
        List.init hosts (fun h -> (h, counts.(h)))
        |> List.filter (fun (h, _) -> Network.alive net h)
        |> List.sort (fun (h1, v1) (h2, v2) -> compare (-v1, h1) (-v2, h2))
      in
      Obs.hot_hosts net ~k = List.filteri (fun i _ -> i < k) sorted)

let qcheck_goto_nonnegative =
  QCheck.Test.make ~name:"message count equals host changes" ~count:300
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 50) (int_range 0 19)))
    (fun (hosts, moves) ->
      let moves = List.map (fun m -> m mod hosts) moves in
      let net = Network.create ~hosts in
      let s = Network.start net 0 in
      let expected = ref 0 in
      let cur = ref 0 in
      List.iter
        (fun h ->
          if h <> !cur then incr expected;
          cur := h;
          Network.goto s h)
        moves;
      Network.messages s = !expected)

(* [Placement.redraw] is one walk over the raw draws; it must equal
   stepping [Placement.draw] through g, g + 1, ... until a draw is live,
   down to the [Failure] both raise when the raw-draw cap runs out. *)
module Placement = Skipweb_net.Placement

let stepped_redraw net ~slot ~id ~hosts ~taken g =
  let draw g =
    Placement.draw net ~seed:11 ~slot ~level:3 ~prefix:5 ~id ~hosts ~taken ~skip_dead:false g
  in
  let g = ref g in
  while not (Network.alive net (draw !g)) do
    incr g
  done;
  (draw !g, !g)

let test_placement_redraw_steps () =
  let net = Network.create ~hosts:64 in
  for h = 0 to 63 do
    if h mod 8 <> 3 then Network.kill net h
  done;
  let hosts = [| 3; 11; 19 |] in
  for id = 0 to 40 do
    for taken = 0 to 3 do
      List.iter
        (fun g ->
          let slot = taken in
          let want = stepped_redraw net ~slot ~id ~hosts ~taken g in
          let got = Placement.redraw net ~seed:11 ~slot ~level:3 ~prefix:5 ~id ~hosts ~taken g in
          checkb (Printf.sprintf "id %d taken %d g %d" id taken g) true (got = want))
        [ 0; 1; 7 ]
    done
  done;
  (* Every host but 63 taken and 63 dead: no admissible draw is live. *)
  Network.revive net 0;
  Network.kill net 3;
  Network.kill net 63;
  let hosts = Array.init 63 Fun.id in
  let exhausted = Failure "Placement.draw: placement exhausted" in
  Alcotest.check_raises "stepped draws give up" exhausted (fun () ->
      ignore (stepped_redraw net ~slot:1 ~id:9 ~hosts ~taken:63 0));
  Alcotest.check_raises "redraw gives up" exhausted (fun () ->
      ignore (Placement.redraw net ~seed:11 ~slot:1 ~level:3 ~prefix:5 ~id:9 ~hosts ~taken:63 0))

let suite =
  [
    Alcotest.test_case "create bounds" `Quick test_create_bounds;
    Alcotest.test_case "placement redraw = stepped draws" `Quick test_placement_redraw_steps;
    Alcotest.test_case "session counts crossings" `Quick test_session_counts_crossings;
    Alcotest.test_case "total messages accumulate" `Quick test_total_messages_accumulate;
    Alcotest.test_case "traffic tracking" `Quick test_traffic_tracking;
    Alcotest.test_case "deferred commit at finish" `Quick test_deferred_commit;
    Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
    Alcotest.test_case "reset_traffic resets sessions too" `Quick test_reset_traffic_resets_sessions;
    Alcotest.test_case "kill/revive liveness" `Quick test_kill_revive_liveness;
    Alcotest.test_case "cannot kill last live host" `Quick test_cannot_kill_last_live_host;
    Alcotest.test_case "dead host rejects sessions" `Quick test_dead_host_rejects_sessions;
    Alcotest.test_case "live-host stats semantics" `Quick test_live_host_stats;
    Alcotest.test_case "kill interleaves with charges and reset" `Quick
      test_kill_interleaves_with_charges_and_reset;
    Alcotest.test_case "trace exact hop sequence" `Quick test_trace_exact_hop_sequence;
    Alcotest.test_case "trace untraced session free" `Quick test_trace_untraced_session_free;
    Alcotest.test_case "trace spans and attribution" `Quick test_trace_spans_and_attribution;
    Alcotest.test_case "trace unbalanced span rejected" `Quick test_trace_unbalanced_span_rejected;
    Alcotest.test_case "trace clear reuses buffer" `Quick test_trace_clear_reuses_buffer;
    Alcotest.test_case "memory survives traffic reset" `Quick test_memory_survives_traffic_reset;
    Alcotest.test_case "congestion measure" `Quick test_congestion_measure;
    Alcotest.test_case "bad host rejected" `Quick test_bad_host_rejected;
    Alcotest.test_case "gini known values" `Quick test_gini_known_values;
    Alcotest.test_case "congestion over live hosts" `Quick test_congestion_of_live_hosts_only;
    Alcotest.test_case "hot_hosts top-1 = max_traffic" `Quick test_hot_hosts_top1_is_max_traffic;
    Alcotest.test_case "hot_hosts k bounds" `Quick test_hot_hosts_bounds;
    Alcotest.test_case "top_share sums hot_hosts" `Quick test_top_share_sums_hot_hosts;
    Alcotest.test_case "trace shared across operations" `Quick test_trace_shared_across_operations;
    QCheck_alcotest.to_alcotest qcheck_hot_hosts_exact;
    QCheck_alcotest.to_alcotest qcheck_goto_nonnegative;
  ]
