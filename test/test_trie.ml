(* Tests for Skipweb_trie: compressed digital tries (§3.2). *)

module T = Skipweb_trie.Ctrie
module Workload = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let build l = T.build (Array.of_list l)

let test_empty () =
  let t = T.create () in
  checki "size" 0 (T.size t);
  checki "only root" 1 (T.node_count t);
  checkb "mem" false (T.mem t "abc");
  T.check_invariants t

let test_basic_membership () =
  let t = build [ "cat"; "car"; "cart"; "dog" ] in
  checki "size" 4 (T.size t);
  List.iter (fun s -> checkb ("mem " ^ s) true (T.mem t s)) [ "cat"; "car"; "cart"; "dog" ];
  List.iter (fun s -> checkb ("not mem " ^ s) false (T.mem t s)) [ "ca"; "c"; "carts"; ""; "do" ];
  T.check_invariants t

let test_empty_string_key () =
  let t = build [ ""; "a" ] in
  checkb "empty string stored" true (T.mem t "");
  checki "size" 2 (T.size t);
  checkb "remove empty" true (T.remove t "");
  checkb "gone" false (T.mem t "");
  T.check_invariants t

let test_compression () =
  (* A chain of unique extensions compresses to few nodes. *)
  let t = build [ "abcdefghij" ] in
  checki "root + one leaf" 2 (T.node_count t);
  let t2 = build [ "abcdefghij"; "abcdezzzzz" ] in
  (* root, branch node at "abcde", two leaves. *)
  checki "split adds a branch node" 4 (T.node_count t2);
  T.check_invariants t2

let test_count_with_prefix () =
  let t = build [ "cat"; "car"; "cart"; "dog"; "carbon" ] in
  checki "prefix car" 3 (T.count_with_prefix t "car");
  checki "prefix ca" 4 (T.count_with_prefix t "ca");
  checki "prefix cart" 1 (T.count_with_prefix t "cart");
  checki "prefix d" 1 (T.count_with_prefix t "d");
  checki "prefix absent" 0 (T.count_with_prefix t "dz");
  checki "empty prefix counts all" 5 (T.count_with_prefix t "")

let test_longest_common_prefix () =
  let t = build [ "romane"; "romanus"; "romulus" ] in
  Alcotest.(check string) "full hit" "romane" (T.longest_common_prefix t "romane");
  Alcotest.(check string) "diverges inside edge" "roman" (T.longest_common_prefix t "romanx");
  Alcotest.(check string) "diverges at node" "rom" (T.longest_common_prefix t "romzzz");
  Alcotest.(check string) "no overlap" "" (T.longest_common_prefix t "xyz")

let test_insert_remove_roundtrip () =
  let t = build [ "alpha"; "beta" ] in
  checkb "insert new" true (T.insert t "alphabet");
  checkb "insert dup" false (T.insert t "alphabet");
  T.check_invariants t;
  checkb "remove" true (T.remove t "alphabet");
  checkb "remove twice" false (T.remove t "alphabet");
  T.check_invariants t;
  checki "back to 2" 2 (T.size t);
  (* Removing "alphabet" must splice the split node away again. *)
  checki "node count restored" (T.node_count (build [ "alpha"; "beta" ])) (T.node_count t)

let test_remove_inner_terminal () =
  (* "car" is both terminal and a branching node: removing it must keep the
     node (it still branches). *)
  let t = build [ "car"; "cart"; "carbon" ] in
  checkb "remove inner" true (T.remove t "car");
  checkb "others intact" true (T.mem t "cart" && T.mem t "carbon");
  T.check_invariants t

let test_canonical_structure () =
  (* The compressed trie is canonical: node strings don't depend on
     insertion order. *)
  let words = [ "banana"; "band"; "bandana"; "bans"; "can"; "candy"; "con" ] in
  let t1 = build words in
  let t2 = build (List.rev words) in
  checki "same node count" (T.node_count t1) (T.node_count t2);
  List.iter
    (fun w ->
      let loc1, _ = T.locate t1 w and loc2, _ = T.locate t2 w in
      Alcotest.(check string)
        "same located node string"
        (T.node_string loc1.T.node)
        (T.node_string loc2.T.node))
    words

let test_prefix_heavy_is_deep () =
  let strs = Workload.prefix_heavy_strings ~seed:1 ~n:60 ~alphabet:4 in
  let t = T.build strs in
  T.check_invariants t;
  checkb "string depth Θ(n)" true (T.max_string_depth t >= 60)

let test_locate_path_and_subtree_sizes () =
  let strs = Workload.random_strings ~seed:2 ~n:300 ~alphabet:4 ~len:8 in
  let t = T.build strs in
  T.check_invariants t;
  Array.iter
    (fun s ->
      let loc, path = T.locate t s in
      (match loc.T.slot with
      | T.Exact -> Alcotest.(check string) "lands on its node" s (T.node_string loc.T.node)
      | T.In_edge _ | T.No_child _ -> Alcotest.fail "stored string must locate exactly");
      match path with
      | first :: _ -> checki "path starts at root" (T.node_id (T.root t)) (T.node_id first)
      | [] -> Alcotest.fail "empty path")
    strs

let test_count_prefix_matches_oracle () =
  let strs = Workload.random_strings ~seed:3 ~n:400 ~alphabet:3 ~len:7 in
  let t = T.build strs in
  let prefixes = [ "a"; "ab"; "abc"; "b"; "bb"; "ccc"; "" ] in
  List.iter
    (fun p ->
      let oracle =
        Array.to_list strs
        |> List.filter (fun s -> String.length s >= String.length p && String.sub s 0 (String.length p) = p)
        |> List.length
      in
      checki ("prefix count " ^ p) oracle (T.count_with_prefix t p))
    prefixes

let test_iter_lexicographic () =
  let t = build [ "pear"; "apple"; "peach"; "apricot"; "plum" ] in
  let acc = ref [] in
  T.iter t ~f:(fun s -> acc := s :: !acc);
  Alcotest.(check (list string))
    "lexicographic order"
    [ "apple"; "apricot"; "peach"; "pear"; "plum" ]
    (List.rev !acc)

let test_subset_nodes_exist_in_superset () =
  (* §2.3 refinement property for tries: node strings of D(T) are node
     strings of D(S). *)
  let strs = Workload.random_strings ~seed:4 ~n:300 ~alphabet:3 ~len:8 in
  let rng = Prng.create 5 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list strs)) in
  let s = T.build strs in
  let t = T.build sub in
  Array.iter
    (fun w ->
      let _, path = T.locate t w in
      List.iter
        (fun n ->
          checkb "T-node string exists in S" true (T.node_of_string s (T.node_string n) <> None))
        path)
    sub

let qcheck_model_conformance =
  QCheck.Test.make ~name:"trie conforms to string-set model" ~count:150
    QCheck.(list (string_gen_of_size (Gen.int_range 0 8) (Gen.char_range 'a' 'd')))
    (fun words ->
      let t = T.create () in
      let module SS = Set.Make (String) in
      let model = ref SS.empty in
      List.iter
        (fun w ->
          if String.length w mod 3 = 2 then begin
            ignore (T.remove t w);
            model := SS.remove w !model
          end
          else begin
            ignore (T.insert t w);
            model := SS.add w !model
          end)
        words;
      T.check_invariants t;
      let acc = ref [] in
      T.iter t ~f:(fun s -> acc := s :: !acc);
      List.rev !acc = SS.elements !model)

let test_strings_with_prefix () =
  let t = build [ "cat"; "car"; "cart"; "carbon"; "dog" ] in
  Alcotest.(check (list string)) "car subtree" [ "car"; "carbon"; "cart" ] (T.strings_with_prefix t "car");
  Alcotest.(check (list string)) "inside edge" [ "carbon" ] (T.strings_with_prefix t "carb");
  Alcotest.(check (list string)) "absent" [] (T.strings_with_prefix t "zebra");
  Alcotest.(check (list string)) "everything" [ "car"; "carbon"; "cart"; "cat"; "dog" ]
    (T.strings_with_prefix t "")

(* Everything observable about a trie, ids included. *)
let node_census t =
  let acc = ref [] in
  T.iter_nodes t ~f:(fun n ->
      acc := (T.node_id n, T.node_string n, T.subtree_size n) :: !acc);
  List.sort compare !acc

let test_bulk_build_canonical () =
  let strs = Workload.random_strings ~seed:77 ~n:4_000 ~alphabet:4 ~len:9 in
  let t = T.build strs in
  T.check_invariants t;
  let census = node_census t in
  let rev = Array.of_list (List.rev (Array.to_list strs)) in
  checkb "permutation invariant (ids included)" true (node_census (T.build rev) = census)

let test_prefix_scan_matches_oracle () =
  let strs = Workload.random_strings ~seed:9 ~n:400 ~alphabet:3 ~len:7 in
  let t = T.build strs in
  List.iter
    (fun p ->
      let loc, _ = T.locate t p in
      let total, sample, visited = T.prefix_scan t loc p ~limit:25 in
      checki ("total = count_with_prefix " ^ p) (T.count_with_prefix t p) total;
      let all = T.strings_with_prefix t p in
      checki ("sample bounded " ^ p) (min 25 total) (List.length sample);
      checkb ("sample is a lex prefix of the full report " ^ p) true
        (sample = List.filteri (fun i _ -> i < 25) all);
      if total > 0 then checkb ("walk charged " ^ p) true (visited <> []);
      let total_full, sample_full, _ = T.prefix_scan t loc p ~limit:10_000 in
      checki ("unclipped total " ^ p) total total_full;
      checkb ("unclipped sample = strings_with_prefix " ^ p) true (sample_full = all))
    [ "a"; "ab"; "abc"; "b"; "cc"; "zzz"; "" ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "basic membership" `Quick test_basic_membership;
    Alcotest.test_case "empty string key" `Quick test_empty_string_key;
    Alcotest.test_case "compression" `Quick test_compression;
    Alcotest.test_case "count_with_prefix" `Quick test_count_with_prefix;
    Alcotest.test_case "strings_with_prefix" `Quick test_strings_with_prefix;
    Alcotest.test_case "longest_common_prefix" `Quick test_longest_common_prefix;
    Alcotest.test_case "insert/remove roundtrip" `Quick test_insert_remove_roundtrip;
    Alcotest.test_case "remove inner terminal" `Quick test_remove_inner_terminal;
    Alcotest.test_case "canonical structure" `Quick test_canonical_structure;
    Alcotest.test_case "prefix-heavy input is deep" `Quick test_prefix_heavy_is_deep;
    Alcotest.test_case "locate path and terminals" `Quick test_locate_path_and_subtree_sizes;
    Alcotest.test_case "prefix count matches oracle" `Quick test_count_prefix_matches_oracle;
    Alcotest.test_case "iter lexicographic" `Quick test_iter_lexicographic;
    Alcotest.test_case "subset nodes exist in superset" `Quick test_subset_nodes_exist_in_superset;
    Alcotest.test_case "bulk build canonical" `Quick test_bulk_build_canonical;
    Alcotest.test_case "prefix_scan = oracle" `Quick test_prefix_scan_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_model_conformance;
  ]
