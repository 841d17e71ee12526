(* Tests for Skipweb_skiplist: the classic Pugh skip list (Figure 1). *)

module SL = Skipweb_skiplist.Skip_list
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let of_list seed kvs =
  let t = SL.Int.create ~seed () in
  List.iter (fun (k, v) -> SL.Int.insert t k v) kvs;
  t

let test_empty () =
  let t = SL.Int.create ~seed:1 () in
  checkb "empty" true (SL.Int.is_empty t);
  checki "length" 0 (SL.Int.length t);
  Alcotest.(check (option int)) "find" None (SL.Int.find t 5);
  checkb "remove absent" false (SL.Int.remove t 5)

let test_insert_find () =
  let t = of_list 2 [ (3, 30); (1, 10); (2, 20) ] in
  checki "length" 3 (SL.Int.length t);
  Alcotest.(check (option int)) "find 1" (Some 10) (SL.Int.find t 1);
  Alcotest.(check (option int)) "find 2" (Some 20) (SL.Int.find t 2);
  Alcotest.(check (option int)) "find 3" (Some 30) (SL.Int.find t 3);
  Alcotest.(check (option int)) "find 4" None (SL.Int.find t 4)

let test_insert_replaces () =
  let t = of_list 3 [ (1, 10); (1, 11) ] in
  checki "no duplicate" 1 (SL.Int.length t);
  Alcotest.(check (option int)) "latest value" (Some 11) (SL.Int.find t 1)

let test_to_list_sorted () =
  let t = of_list 4 [ (5, 0); (1, 0); (9, 0); (3, 0); (7, 0) ] in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (List.map fst (SL.Int.to_list t))

let test_remove () =
  let t = of_list 5 [ (1, 1); (2, 2); (3, 3) ] in
  checkb "remove present" true (SL.Int.remove t 2);
  checkb "remove twice" false (SL.Int.remove t 2);
  checki "length" 2 (SL.Int.length t);
  Alcotest.(check (list int)) "remaining" [ 1; 3 ] (List.map fst (SL.Int.to_list t));
  SL.Int.check_invariants t

let test_predecessor_successor () =
  let t = of_list 6 [ (10, 0); (20, 0); (30, 0) ] in
  Alcotest.(check (option int)) "pred 25" (Some 20) (Option.map fst (SL.Int.predecessor t 25));
  Alcotest.(check (option int)) "pred 20" (Some 20) (Option.map fst (SL.Int.predecessor t 20));
  Alcotest.(check (option int)) "pred 5" None (Option.map fst (SL.Int.predecessor t 5));
  Alcotest.(check (option int)) "succ 25" (Some 30) (Option.map fst (SL.Int.successor t 25));
  Alcotest.(check (option int)) "succ 30" (Some 30) (Option.map fst (SL.Int.successor t 30));
  Alcotest.(check (option int)) "succ 31" None (Option.map fst (SL.Int.successor t 31))

let test_height_logarithmic () =
  let t = SL.Int.create ~seed:8 () in
  for i = 0 to 4095 do
    SL.Int.insert t i i
  done;
  let h = SL.Int.height t in
  (* Expected height ~ log2 4096 = 12; allow generous slack. *)
  checkb "height sane" true (h >= 8 && h <= 26)

let test_tower_heights_geometric () =
  let t = SL.Int.create ~seed:9 () in
  let n = 8192 in
  for i = 0 to n - 1 do
    SL.Int.insert t i i
  done;
  let ones = ref 0 in
  for i = 0 to n - 1 do
    match SL.Int.tower_height t i with
    | Some 1 -> incr ones
    | Some _ -> ()
    | None -> Alcotest.fail "key missing"
  done;
  let freq = float_of_int !ones /. float_of_int n in
  checkb "about half the towers have height 1" true (Float.abs (freq -. 0.5) < 0.05)

let test_search_cost_logarithmic () =
  let t = SL.Int.create ~seed:10 () in
  let n = 4096 in
  for i = 0 to n - 1 do
    SL.Int.insert t (2 * i) i
  done;
  let costs = List.init 200 (fun i -> SL.Int.search_cost t (i * 37 mod (2 * n))) in
  let mean = float_of_int (List.fold_left ( + ) 0 costs) /. 200.0 in
  (* Expected ~ 2 log2 n = 24; fail only on gross blowup. *)
  checkb "search cost logarithmic" true (mean < 60.0)

let test_invariants_random_ops () =
  let rng = Prng.create 11 in
  let t = SL.Int.create ~seed:12 () in
  let model = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    let k = Prng.int rng 200 in
    if Prng.bool rng then begin
      SL.Int.insert t k k;
      Hashtbl.replace model k k
    end
    else begin
      let was = Hashtbl.mem model k in
      let removed = SL.Int.remove t k in
      checkb "remove agrees with model" was removed;
      Hashtbl.remove model k
    end
  done;
  SL.Int.check_invariants t;
  checki "length agrees with model" (Hashtbl.length model) (SL.Int.length t);
  Hashtbl.iter (fun k v -> Alcotest.(check (option int)) "binding" (Some v) (SL.Int.find t k)) model

let qcheck_model_conformance =
  QCheck.Test.make ~name:"skip list conforms to sorted-assoc model" ~count:200
    QCheck.(pair small_int (list (pair (int_range 0 100) (int_range 0 100))))
    (fun (seed, ops) ->
      let t = SL.Int.create ~seed () in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      List.iter
        (fun (k, v) ->
          if v mod 3 = 0 then begin
            ignore (SL.Int.remove t k);
            model := M.remove k !model
          end
          else begin
            SL.Int.insert t k v;
            model := M.add k v !model
          end)
        ops;
      SL.Int.check_invariants t;
      SL.Int.to_list t = M.bindings !model)

let qcheck_string_keys =
  QCheck.Test.make ~name:"skip list over string keys stays sorted" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40) (string_gen_of_size (Gen.int_range 0 6) Gen.printable))
    (fun keys ->
      let module S = SL.Make (struct
        type t = string

        let compare = String.compare
        let to_string s = s
      end) in
      let t = S.create ~seed:5 () in
      List.iter (fun k -> S.insert t k ()) keys;
      S.check_invariants t;
      let got = List.map fst (S.to_list t) in
      got = List.sort_uniq String.compare keys)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "insert replaces" `Quick test_insert_replaces;
    Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "predecessor/successor" `Quick test_predecessor_successor;
    Alcotest.test_case "height logarithmic" `Quick test_height_logarithmic;
    Alcotest.test_case "tower heights geometric" `Quick test_tower_heights_geometric;
    Alcotest.test_case "search cost logarithmic" `Quick test_search_cost_logarithmic;
    Alcotest.test_case "invariants after random ops" `Quick test_invariants_random_ops;
    QCheck_alcotest.to_alcotest qcheck_model_conformance;
    QCheck_alcotest.to_alcotest qcheck_string_keys;
  ]
