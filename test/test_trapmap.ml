(* Tests for Skipweb_trapmap: trapezoidal maps (§3.3, Lemma 5). *)

module TM = Skipweb_trapmap.Trapmap
module Segment = Skipweb_geom.Segment
module Workload = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_empty_map () =
  let t = TM.empty () in
  checki "one trapezoid" 1 (TM.trap_count t);
  TM.check_invariants t;
  let tr = TM.locate t (0.5, 0.5) in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "full span" (0.0, 1.0) (TM.trap_xspan tr);
  checkb "box boundaries" true (TM.trap_top tr = None && TM.trap_bottom tr = None)

let test_single_segment () =
  let s = Segment.make ~id:0 (0.2, 0.5) (0.8, 0.6) in
  let t = TM.build [| s |] in
  checki "3n+1" 4 (TM.trap_count t);
  TM.check_invariants t;
  (* Above the segment. *)
  let above = TM.locate t (0.5, 0.9) in
  checkb "above has segment bottom" true
    (match TM.trap_bottom above with Some b -> Segment.id b = 0 | None -> false);
  (* Below the segment. *)
  let below = TM.locate t (0.5, 0.1) in
  checkb "below has segment top" true
    (match TM.trap_top below with Some b -> Segment.id b = 0 | None -> false);
  (* Left of the segment. *)
  let left = TM.locate t (0.1, 0.5) in
  checkb "left is the box slab" true (TM.trap_top left = None && TM.trap_bottom left = None)

let test_two_nested_segments () =
  let s0 = Segment.make ~id:0 (0.1, 0.5) (0.9, 0.5) in
  let s1 = Segment.make ~id:1 (0.3, 0.7) (0.7, 0.75) in
  let t = TM.build [| s0; s1 |] in
  checki "3n+1" 7 (TM.trap_count t);
  TM.check_invariants t;
  (* Between the two segments. *)
  let mid = TM.locate t (0.5, 0.6) in
  checkb "sandwiched" true
    ((match TM.trap_top mid with Some s -> Segment.id s = 1 | None -> false)
    && match TM.trap_bottom mid with Some s -> Segment.id s = 0 | None -> false)

let test_insertion_order_irrelevant () =
  (* The trapezoidal map is canonical; counts and located extents agree
     regardless of insertion order. *)
  let segs = Workload.disjoint_segments ~seed:3 ~n:12 in
  let t1 = TM.build segs in
  let rev = Array.of_list (List.rev (Array.to_list segs)) in
  let t2 = TM.build rev in
  checki "same count" (TM.trap_count t1) (TM.trap_count t2);
  let queries = Workload.trapmap_query_points ~seed:4 ~n:100 in
  Array.iter
    (fun q ->
      match (TM.locate_opt t1 q, TM.locate_opt t2 q) with
      | Some a, Some b ->
          Alcotest.(check (pair (float 1e-9) (float 1e-9)))
            "same x-span" (TM.trap_xspan a) (TM.trap_xspan b)
      | None, None -> ()
      | Some _, None | None, Some _ -> Alcotest.fail "maps disagree on containment")
    queries

let test_build_random_invariants () =
  List.iter
    (fun n ->
      let segs = Workload.disjoint_segments ~seed:(100 + n) ~n in
      let t = TM.build segs in
      TM.check_invariants t;
      checki "3n+1 trapezoids" ((3 * n) + 1) (TM.trap_count t))
    [ 1; 2; 5; 10; 25; 50 ]

let test_locate_total_on_queries () =
  let segs = Workload.disjoint_segments ~seed:7 ~n:30 in
  let t = TM.build segs in
  let queries = Workload.trapmap_query_points ~seed:8 ~n:500 in
  Array.iter
    (fun q ->
      match TM.locate_opt t q with
      | Some tr -> checkb "contains" true (TM.trap_contains tr q)
      | None -> Alcotest.fail "general-position query not located")
    queries

let test_validation_rejects_crossing () =
  let s0 = Segment.make ~id:0 (0.2, 0.2) (0.8, 0.8) in
  let s1 = Segment.make ~id:1 (0.2, 0.8) (0.8, 0.2) in
  let t = TM.empty () in
  TM.insert t s0;
  checkb "crossing rejected" true
    (try
       TM.insert t s1;
       false
     with Invalid_argument _ -> true);
  (* A rejected insert leaves the segment counter as it was. *)
  Alcotest.(check int) "count unchanged" 1 (TM.segment_count t);
  TM.check_invariants t

let test_validation_rejects_duplicate_x () =
  let s0 = Segment.make ~id:0 (0.2, 0.2) (0.4, 0.3) in
  let s1 = Segment.make ~id:1 (0.2, 0.6) (0.5, 0.7) in
  let t = TM.empty () in
  TM.insert t s0;
  checkb "duplicate x rejected" true
    (try
       TM.insert t s1;
       false
     with Invalid_argument _ -> true);
  (* A rejected insert leaves the segment counter as it was. *)
  Alcotest.(check int) "count unchanged" 1 (TM.segment_count t);
  TM.check_invariants t

let test_validation_rejects_outside_box () =
  let s = Segment.make ~id:0 (-0.1, 0.5) (0.5, 0.5) in
  checkb "outside box rejected" true
    (try
       ignore (TM.build [| s |]);
       false
     with Invalid_argument _ -> true)

let test_trap_intersects_self_map_disjoint () =
  let segs = Workload.disjoint_segments ~seed:9 ~n:20 in
  let t = TM.build segs in
  let traps = Array.of_list (TM.traps t) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b -> if i < j then checkb "own traps disjoint" false (TM.trap_intersects a b))
        traps)
    traps

let test_conflicts_contain_parent_location () =
  (* Routing soundness: the D(S) trapezoid containing q conflicts with the
     D(T) trapezoid containing q. *)
  let segs = Workload.disjoint_segments ~seed:10 ~n:40 in
  let rng = Prng.create 11 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list segs)) in
  let s = TM.build segs in
  let t = TM.build sub in
  let queries = Workload.trapmap_query_points ~seed:12 ~n:200 in
  Array.iter
    (fun q ->
      match (TM.locate_opt t q, TM.locate_opt s q) with
      | Some child_trap, Some parent_trap ->
          let confl = TM.conflicts s child_trap in
          checkb "parent location among conflicts" true
            (List.exists (fun c -> TM.trap_id c = TM.trap_id parent_trap) confl)
      | (Some _ | None), _ -> ())
    queries

let test_lemma5_exact_formula () =
  (* Lemma 5's exact accounting: |C(t, S)| = 1 + a + 2b + 3c. *)
  let segs = Workload.disjoint_segments ~seed:13 ~n:40 in
  let rng = Prng.create 14 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list segs)) in
  let s = TM.build segs in
  let t = TM.build sub in
  let queries = Workload.trapmap_query_points ~seed:15 ~n:100 in
  Array.iter
    (fun q ->
      match TM.locate_opt t q with
      | None -> ()
      | Some child_trap ->
          let conflicts = List.length (TM.conflicts s child_trap) in
          let formula, (_a, _b, _c) = TM.conflict_formula ~segments:segs child_trap in
          checki "1 + a + 2b + 3c" formula conflicts)
    queries

let test_conflict_formula_empty_difference () =
  (* If T = S, every D(T) trapezoid conflicts only with itself. *)
  let segs = Workload.disjoint_segments ~seed:16 ~n:15 in
  let s = TM.build segs in
  List.iter
    (fun tr ->
      let formula, (a, b, c) = TM.conflict_formula ~segments:segs tr in
      checki "no crossing segments" 0 (a + b + c);
      checki "self conflict only" 1 formula;
      checki "conflict list is itself" 1 (List.length (TM.conflicts s tr)))
    (TM.traps s)

let test_areas_positive () =
  let segs = Workload.disjoint_segments ~seed:17 ~n:25 in
  let t = TM.build segs in
  List.iter (fun tr -> checkb "positive area" true (TM.trap_area tr > 0.0)) (TM.traps t)

let qcheck_build_and_partition =
  QCheck.Test.make ~name:"random maps partition the square" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 0 30))
    (fun (seed, n) ->
      let segs = Workload.disjoint_segments ~seed ~n in
      let t = TM.build segs in
      TM.check_invariants t;
      let queries = Workload.trapmap_query_points ~seed:(seed + 1) ~n:50 in
      Array.for_all
        (fun q ->
          match TM.locate_opt t q with Some tr -> TM.trap_contains tr q | None -> false)
        queries)

let suite =
  [
    Alcotest.test_case "empty map" `Quick test_empty_map;
    Alcotest.test_case "single segment" `Quick test_single_segment;
    Alcotest.test_case "two nested segments" `Quick test_two_nested_segments;
    Alcotest.test_case "insertion order irrelevant" `Quick test_insertion_order_irrelevant;
    Alcotest.test_case "random builds: invariants + 3n+1" `Quick test_build_random_invariants;
    Alcotest.test_case "locate total" `Quick test_locate_total_on_queries;
    Alcotest.test_case "rejects crossing" `Quick test_validation_rejects_crossing;
    Alcotest.test_case "rejects duplicate x" `Quick test_validation_rejects_duplicate_x;
    Alcotest.test_case "rejects outside box" `Quick test_validation_rejects_outside_box;
    Alcotest.test_case "own trapezoids disjoint" `Quick test_trap_intersects_self_map_disjoint;
    Alcotest.test_case "conflicts contain parent location" `Quick test_conflicts_contain_parent_location;
    Alcotest.test_case "Lemma 5 exact formula" `Quick test_lemma5_exact_formula;
    Alcotest.test_case "T = S means self-conflict only" `Quick test_conflict_formula_empty_difference;
    Alcotest.test_case "areas positive" `Quick test_areas_positive;
    QCheck_alcotest.to_alcotest qcheck_build_and_partition;
  ]
