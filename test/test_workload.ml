(* Tests for Skipweb_workload: generators feed every experiment, so they
   must produce exactly what they promise. *)

module W = Skipweb_workload.Workload
module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let distinct_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

let test_distinct_ints () =
  let keys = W.distinct_ints ~seed:1 ~n:1000 ~bound:100_000 in
  checki "count" 1000 (Array.length keys);
  checkb "sorted distinct" true (distinct_sorted keys);
  Array.iter (fun k -> checkb "in bound" true (k >= 0 && k < 100_000)) keys

let test_distinct_ints_deterministic () =
  let a = W.distinct_ints ~seed:5 ~n:100 ~bound:10_000 in
  let b = W.distinct_ints ~seed:5 ~n:100 ~bound:10_000 in
  Alcotest.(check (array int)) "same seed same keys" a b

let test_clustered_ints () =
  let keys = W.clustered_ints ~seed:2 ~n:500 ~clusters:5 ~spread:1000 in
  checkb "mostly generated" true (Array.length keys > 400);
  checkb "sorted distinct" true (distinct_sorted keys)

let test_query_mix () =
  let keys = W.distinct_ints ~seed:3 ~n:100 ~bound:10_000 in
  let qs = W.query_mix ~seed:4 ~keys ~n:500 ~bound:10_000 in
  checki "count" 500 (Array.length qs);
  Array.iter (fun q -> checkb "in bound" true (q >= 0 && q < 10_000)) qs

let test_uniform_points () =
  let pts = W.uniform_points ~seed:5 ~n:200 ~dim:3 in
  checki "count" 200 (Array.length pts);
  Array.iter
    (fun p ->
      checki "dim" 3 (Point.dim p);
      Array.iter (fun c -> checkb "unit cube" true (c >= 0.0 && c < 1.0)) p)
    pts

let test_clustered_points () =
  let pts = W.clustered_points ~seed:6 ~n:200 ~dim:2 ~clusters:3 ~radius:0.05 in
  checki "count" 200 (Array.length pts);
  Array.iter
    (fun p -> Array.iter (fun c -> checkb "unit cube" true (c >= 0.0 && c < 1.0)) p)
    pts

let test_diagonal_points () =
  let pts = W.diagonal_points ~n:20 ~dim:2 in
  checki "count" 20 (Array.length pts);
  (* Strictly decreasing geometric coordinates. *)
  for i = 1 to 19 do
    checkb "geometric decay" true (pts.(i).(0) < pts.(i - 1).(0))
  done;
  checkb "too many rejected" true
    (try
       ignore (W.diagonal_points ~n:40 ~dim:2);
       false
     with Invalid_argument _ -> true)

let test_random_strings () =
  let strs = W.random_strings ~seed:7 ~n:500 ~alphabet:4 ~len:8 in
  checki "count" 500 (Array.length strs);
  let tbl = Hashtbl.create 512 in
  Array.iter
    (fun s ->
      checki "length" 8 (String.length s);
      String.iter (fun c -> checkb "alphabet" true (c >= 'a' && c <= 'd')) s;
      checkb "distinct" false (Hashtbl.mem tbl s);
      Hashtbl.add tbl s ())
    strs

let test_prefix_heavy_strings () =
  let strs = W.prefix_heavy_strings ~seed:8 ~n:30 ~alphabet:3 in
  checki "count" 30 (Array.length strs);
  (* String i starts with i copies of 'a' then a non-'a'. *)
  Array.iteri
    (fun i s ->
      checkb "prefix of a's" true (String.length s > i);
      String.iteri (fun j c -> if j < i then checkb "leading a's" true (c = 'a')) s;
      checkb "pivot differs" true (s.[i] <> 'a'))
    strs

let test_isbn_strings () =
  let strs = W.isbn_strings ~seed:9 ~n:200 ~publishers:10 in
  checki "count" 200 (Array.length strs);
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun s ->
      checkb "isbn shape" true (String.length s >= 12 && String.sub s 0 4 = "978-");
      checkb "distinct" false (Hashtbl.mem tbl s);
      Hashtbl.add tbl s ())
    strs

let test_string_queries () =
  let keys = W.random_strings ~seed:10 ~n:50 ~alphabet:3 ~len:6 in
  let qs = W.string_queries ~seed:11 ~keys ~n:300 in
  checki "count" 300 (Array.length qs)

let test_disjoint_segments () =
  let segs = W.disjoint_segments ~seed:12 ~n:60 in
  checki "count" 60 (Array.length segs);
  let xs = Hashtbl.create 256 in
  Array.iteri
    (fun i a ->
      let (x0, y0), (x1, y1) = Segment.endpoints a in
      checkb "inside box" true (x0 > 0.0 && x1 < 1.0 && y0 > 0.0 && y0 < 1.0 && y1 > 0.0 && y1 < 1.0);
      checkb "x distinct" false (Hashtbl.mem xs x0 || Hashtbl.mem xs x1);
      Hashtbl.add xs x0 ();
      Hashtbl.add xs x1 ();
      Array.iteri (fun j b -> if i < j then checkb "non-crossing" false (Segment.crosses a b)) segs)
    segs

let test_zipf_queries () =
  let keys = W.distinct_ints ~seed:20 ~n:200 ~bound:100_000 in
  let qs = W.zipf_queries ~seed:21 ~keys ~n:5000 ~s:1.0 in
  checki "count" 5000 (Array.length qs);
  let stored = Hashtbl.create 256 in
  Array.iter (fun k -> Hashtbl.replace stored k ()) keys;
  Array.iter (fun q -> checkb "zipf queries hit stored keys" true (Hashtbl.mem stored q)) qs;
  (* The distribution is skewed: the most popular key appears far more
     often than the uniform share. *)
  let counts = Hashtbl.create 256 in
  Array.iter (fun q -> Hashtbl.replace counts q (1 + (try Hashtbl.find counts q with Not_found -> 0))) qs;
  let top = Hashtbl.fold (fun _ c acc -> max acc c) counts 0 in
  checkb "skewed head" true (top > 3 * (5000 / 200))

(* Regression for the inverse-CDF out-of-bounds bug: accumulating the m
   normalized Zipf weights in floating point can leave cdf.(m-1) a few
   ulps below 1.0 (the gap is ~1e-16..1e-10, far too small to hit
   reliably by sampling — which is why the bug survived: a uniform draw
   landing in the gap made the binary search return m and index one past
   the rank permutation). The fixed CDF pins its last entry to exactly
   1.0; these (m, s) pairs are ones where the unpinned accumulation
   provably falls short, so this test fails on the old code. *)
let test_zipf_cdf_terminal_entry () =
  List.iter
    (fun (m, s) ->
      let cdf = W.zipf_cdf ~m ~s in
      checki "length" m (Array.length cdf);
      checkb
        (Printf.sprintf "cdf.(m-1) exactly 1.0 at m=%d s=%g" m s)
        true
        (cdf.(m - 1) = 1.0);
      (* Monotone non-decreasing, so the pinned tail cannot re-order the
         search. *)
      for i = 1 to m - 1 do
        checkb "monotone" true (cdf.(i) >= cdf.(i - 1))
      done)
    [ (100_000, 1.1); (50_000, 0.8); (4096, 1.0); (1, 2.0) ];
  Alcotest.check_raises "m >= 1" (Invalid_argument "Workload.zipf_cdf: m >= 1") (fun () ->
      ignore (W.zipf_cdf ~m:0 ~s:1.0));
  Alcotest.check_raises "s > 0" (Invalid_argument "Workload.zipf_cdf: s > 0") (fun () ->
      ignore (W.zipf_cdf ~m:10 ~s:0.0))

(* The sampling-level symptom, at adversarial scale: every drawn query
   must be a stored key even for a large key set where the unpinned CDF
   falls short of 1.0. (An out-of-range rank would raise Invalid_argument
   on the permutation index — on the old code this is a latent crash
   whose trigger probability per draw is the width of the CDF gap.) *)
let test_zipf_queries_large_m_in_bounds () =
  let m = 50_000 in
  let keys = Array.init m (fun i -> 2 * i) in
  let stored = Hashtbl.create m in
  Array.iter (fun k -> Hashtbl.replace stored k ()) keys;
  let qs = W.zipf_queries ~seed:77 ~keys ~n:20_000 ~s:0.8 in
  checki "count" 20_000 (Array.length qs);
  Array.iter (fun q -> checkb "every query is a stored key" true (Hashtbl.mem stored q)) qs

let suite =
  [
    Alcotest.test_case "distinct ints" `Quick test_distinct_ints;
    Alcotest.test_case "distinct ints deterministic" `Quick test_distinct_ints_deterministic;
    Alcotest.test_case "clustered ints" `Quick test_clustered_ints;
    Alcotest.test_case "query mix" `Quick test_query_mix;
    Alcotest.test_case "uniform points" `Quick test_uniform_points;
    Alcotest.test_case "clustered points" `Quick test_clustered_points;
    Alcotest.test_case "diagonal points" `Quick test_diagonal_points;
    Alcotest.test_case "random strings" `Quick test_random_strings;
    Alcotest.test_case "prefix heavy strings" `Quick test_prefix_heavy_strings;
    Alcotest.test_case "isbn strings" `Quick test_isbn_strings;
    Alcotest.test_case "string queries" `Quick test_string_queries;
    Alcotest.test_case "disjoint segments" `Quick test_disjoint_segments;
    Alcotest.test_case "zipf queries" `Quick test_zipf_queries;
    Alcotest.test_case "zipf cdf terminal entry (OOB regression)" `Quick
      test_zipf_cdf_terminal_entry;
    Alcotest.test_case "zipf queries large m in bounds" `Quick test_zipf_queries_large_m_in_bounds;
  ]
