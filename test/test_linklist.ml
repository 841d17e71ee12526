(* Tests for Skipweb_linklist: the 1-d range-determined link structure and
   its conflict lists (§2.1–2.2 of the paper, Lemma 1). *)

module L = Skipweb_linklist.Linklist
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let keys = [| 10; 20; 30; 50; 80 |]

let test_num_ranges () =
  checki "2m+1" 11 (L.num_ranges keys);
  checki "empty set has the universal range" 1 (L.num_ranges [||])

let test_encode_decode_roundtrip () =
  for c = 0 to 10 do
    checki "roundtrip" c (L.encode (L.decode c))
  done

let test_valid () =
  checkb "node in range" true (L.valid keys (L.Node 4));
  checkb "node out of range" false (L.valid keys (L.Node 5));
  checkb "end link" true (L.valid keys (L.Link 5));
  checkb "link out of range" false (L.valid keys (L.Link 6))

let test_span () =
  Alcotest.(check (pair bool bool))
    "node span is the key" (true, true)
    (match L.span keys (L.Node 2) with L.Key 30, L.Key 30 -> (true, true) | _ -> (false, false));
  (match L.span keys (L.Link 0) with
  | L.Neg_inf, L.Key 10 -> ()
  | _ -> Alcotest.fail "left end link span");
  match L.span keys (L.Link 5) with
  | L.Key 80, L.Pos_inf -> ()
  | _ -> Alcotest.fail "right end link span"

let test_locate_hits_nodes () =
  Array.iteri
    (fun i k ->
      match L.locate keys k with
      | L.Node j -> checki "exact key locates node" i j
      | L.Link _ -> Alcotest.fail "expected node")
    keys

let test_locate_hits_links () =
  (match L.locate keys 25 with
  | L.Link 2 -> ()
  | _ -> Alcotest.fail "between 20 and 30 is link 2");
  (match L.locate keys 5 with L.Link 0 -> () | _ -> Alcotest.fail "before min is link 0");
  match L.locate keys 99 with L.Link 5 -> () | _ -> Alcotest.fail "after max is link 5"

let test_contains_matches_locate () =
  for q = 0 to 100 do
    let r = L.locate keys q in
    checkb "located range contains query" true (L.contains keys r q)
  done

let test_conflicts_node () =
  (* Child {20} against parent {10;20;30;50;80}: node 20's conflicts are
     the node itself plus its two incident parent links. *)
  let child = [| 20 |] in
  let confl = L.conflicts ~parent:keys ~child (L.Node 0) in
  Alcotest.(check (list int))
    "node conflicts"
    [ L.encode (L.Link 1); L.encode (L.Node 1); L.encode (L.Link 2) ]
    (List.map L.encode confl)

let test_conflicts_link () =
  (* Child {10; 50}: its middle link [10,50] conflicts with parent nodes
     10..50 and all links meeting [10,50]. *)
  let child = [| 10; 50 |] in
  let lo, hi = L.conflict_interval ~parent:keys ~child (L.Link 1) in
  checki "low end is link before 10" (L.encode (L.Link 0)) lo;
  checki "high end is link after 50" (L.encode (L.Link 4)) hi;
  checki "count" (hi - lo + 1) (L.conflict_count ~parent:keys ~child (L.Link 1))

let test_conflicts_empty_child () =
  (* The empty set's universal range conflicts with every parent range. *)
  let child = [||] in
  let lo, hi = L.conflict_interval ~parent:keys ~child (L.Link 0) in
  checki "everything conflicts" (L.num_ranges keys) (hi - lo + 1);
  checki "starts at first" 0 lo

let test_conflicts_interior_gap () =
  (* Child {10;20}: the closed link [10,20] touches parent ranges from the
     link ending at 10 through the link starting at 20: codes for Link 0,
     Node 0, Link 1, Node 1, Link 2. *)
  let child = [| 10; 20 |] in
  let lo, hi = L.conflict_interval ~parent:keys ~child (L.Link 1) in
  checki "lo" (L.encode (L.Link 0)) lo;
  checki "hi" (L.encode (L.Link 2)) hi;
  checki "count" 5 (L.conflict_count ~parent:keys ~child (L.Link 1))

let test_intersection_size () =
  let child = [| 10; 50 |] in
  (* Child link [10,50] contains parent keys 10, 20, 30, 50. *)
  checki "|Q ∩ S|" 4 (L.intersection_size ~parent:keys ~child (L.Link 1));
  (* Child node 50 contains exactly the parent key 50. *)
  checki "node intersection" 1 (L.intersection_size ~parent:keys ~child (L.Node 1));
  (* The unbounded right link [50, +inf) contains 50 and 80. *)
  checki "end link intersection" 2 (L.intersection_size ~parent:keys ~child (L.Link 2))

let test_predecessor_successor () =
  Alcotest.(check (option int)) "pred of 25" (Some 20) (L.predecessor keys 25);
  Alcotest.(check (option int)) "pred of 10" (Some 10) (L.predecessor keys 10);
  Alcotest.(check (option int)) "pred of 5" None (L.predecessor keys 5);
  Alcotest.(check (option int)) "succ of 25" (Some 30) (L.successor keys 25);
  Alcotest.(check (option int)) "succ of 99" None (L.successor keys 99);
  Alcotest.(check (option int)) "succ of 80" (Some 80) (L.successor keys 80)

let test_nearest () =
  Alcotest.(check (option int)) "nearest to 24" (Some 20) (L.nearest keys 24);
  Alcotest.(check (option int)) "nearest to 26" (Some 30) (L.nearest keys 26);
  Alcotest.(check (option int)) "tie goes to predecessor" (Some 20) (L.nearest keys 25);
  Alcotest.(check (option int)) "empty set" None (L.nearest [||] 5)

(* The level-0 answer extraction of a skip-web query: the nearest key is
   an endpoint of the range [locate] returns. *)
let test_nearest_in_range_consistent () =
  for q = 0 to 100 do
    let endpoints =
      match L.span keys (L.locate keys q) with
      | L.Key p, L.Key s -> [ p; s ]
      | L.Key k, _ | _, L.Key k -> [ k ]
      | _ -> []
    in
    match L.nearest keys q with
    | Some k -> checkb "global nearest is a range endpoint" true (List.mem k endpoints)
    | None -> Alcotest.fail "non-empty key set has a nearest key"
  done

(* Generators for property tests. *)
let gen_set_and_subset =
  QCheck.Gen.(
    let* n = int_range 1 60 in
    let* seed = int_range 0 10_000 in
    let rng = Prng.create seed in
    let tbl = Hashtbl.create 64 in
    let rec draw k acc =
      if k = 0 then acc
      else
        let v = Prng.int rng 1000 in
        if Hashtbl.mem tbl v then draw k acc
        else begin
          Hashtbl.add tbl v ();
          draw (k - 1) (v :: acc)
        end
    in
    let parent = Array.of_list (draw n []) in
    Array.sort compare parent;
    let child = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list parent)) in
    let* q = int_range (-50) 1050 in
    return (parent, child, q))

let arb_set_and_subset =
  QCheck.make gen_set_and_subset ~print:(fun (p, c, q) ->
      Printf.sprintf "parent=[%s] child=[%s] q=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int p)))
        (String.concat ";" (Array.to_list (Array.map string_of_int c)))
        q)

(* The routing soundness property that makes skip-webs work: the parent
   range containing q always conflicts with the child range containing q. *)
let qcheck_routing_soundness =
  QCheck.Test.make ~name:"parent locate is among child conflicts" ~count:1000 arb_set_and_subset
    (fun (parent, child, q) ->
      let child_range = L.locate child q in
      let parent_range = L.locate parent q in
      let lo, hi = L.conflict_interval ~parent ~child child_range in
      let code = L.encode parent_range in
      lo <= code && code <= hi)

(* Conflicts really are intersections: brute-force cross-check. *)
let qcheck_conflicts_are_intersections =
  QCheck.Test.make ~name:"conflict list = brute-force intersection" ~count:500 arb_set_and_subset
    (fun (parent, child, q) ->
      let child_range = L.locate child q in
      let lo, hi = L.conflict_interval ~parent ~child child_range in
      let bound_to_float = function
        | L.Neg_inf -> neg_infinity
        | L.Key k -> float_of_int k
        | L.Pos_inf -> infinity
      in
      let intersects r1 =
        let lo1, hi1 = L.span parent r1 and lo2, hi2 = L.span child child_range in
        Float.max (bound_to_float lo1) (bound_to_float lo2)
        <= Float.min (bound_to_float hi1) (bound_to_float hi2)
      in
      List.for_all
        (fun code ->
          let expected = code >= lo && code <= hi in
          intersects (L.decode code) = expected)
        (List.init (L.num_ranges parent) Fun.id))

let qcheck_locate_total =
  QCheck.Test.make ~name:"locate always returns a valid containing range" ~count:1000
    arb_set_and_subset (fun (parent, _, q) ->
      let r = L.locate parent q in
      L.valid parent r && L.contains parent r q)

(* The allocation-free code equals the encoded range and a counting oracle
   (two codes per smaller key, plus one on an exact hit), over empty sets,
   probes below the minimum, above the maximum, exact hits and gaps. *)
let qcheck_locate_code =
  QCheck.Test.make ~name:"locate_code = encode (locate a q)" ~count:1000
    QCheck.(triple (small_list small_int) small_int (int_bound 3))
    (fun (xs, r, pick) ->
      let a = Array.of_list (List.sort_uniq compare xs) in
      let m = Array.length a in
      let q =
        match pick with
        | 0 when m > 0 -> a.(r mod m)
        | 1 -> (if m = 0 then 0 else a.(0)) - 1 - r
        | 2 -> (if m = 0 then 0 else a.(m - 1)) + 1 + r
        | _ -> r - 50
      in
      let below = Array.fold_left (fun acc k -> if k < q then acc + 1 else acc) 0 a in
      let oracle = (2 * below) + if Array.mem q a then 1 else 0 in
      L.locate_code a q = L.encode (L.locate a q) && L.locate_code a q = oracle)

let test_range_keys () =
  Alcotest.(check (list int)) "interior range" [ 20; 30; 50 ] (L.range_keys keys ~lo:15 ~hi:50);
  Alcotest.(check (list int)) "inclusive endpoints" [ 10; 20 ] (L.range_keys keys ~lo:10 ~hi:20);
  Alcotest.(check (list int)) "empty range" [] (L.range_keys keys ~lo:21 ~hi:29);
  Alcotest.(check (list int)) "everything" [ 10; 20; 30; 50; 80 ] (L.range_keys keys ~lo:0 ~hi:100);
  Alcotest.(check (list int)) "inverted" [] (L.range_keys keys ~lo:60 ~hi:55)

let test_range_codes () =
  let lo, hi = L.range_codes keys ~lo:15 ~hi:50 in
  checkb "walk covers the reported keys" true (lo <= hi);
  checki "starts at link before 20" (L.encode (L.Link 1)) lo;
  checki "ends at node 50" (L.encode (L.Node 3)) hi

let suite =
  [
    Alcotest.test_case "num ranges" `Quick test_num_ranges;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "valid" `Quick test_valid;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "locate hits nodes" `Quick test_locate_hits_nodes;
    Alcotest.test_case "locate hits links" `Quick test_locate_hits_links;
    Alcotest.test_case "contains matches locate" `Quick test_contains_matches_locate;
    Alcotest.test_case "conflicts of a node" `Quick test_conflicts_node;
    Alcotest.test_case "conflicts of a link" `Quick test_conflicts_link;
    Alcotest.test_case "conflicts of empty child" `Quick test_conflicts_empty_child;
    Alcotest.test_case "conflicts of interior gap" `Quick test_conflicts_interior_gap;
    Alcotest.test_case "intersection size" `Quick test_intersection_size;
    Alcotest.test_case "predecessor/successor" `Quick test_predecessor_successor;
    Alcotest.test_case "nearest" `Quick test_nearest;
    Alcotest.test_case "nearest in range" `Quick test_nearest_in_range_consistent;
    Alcotest.test_case "range keys" `Quick test_range_keys;
    Alcotest.test_case "range codes" `Quick test_range_codes;
    QCheck_alcotest.to_alcotest qcheck_routing_soundness;
    QCheck_alcotest.to_alcotest qcheck_conflicts_are_intersections;
    QCheck_alcotest.to_alcotest qcheck_locate_total;
    QCheck_alcotest.to_alcotest qcheck_locate_code;
  ]
