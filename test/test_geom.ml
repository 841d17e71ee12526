(* Tests for Skipweb_geom: points, grid coordinates, segment predicates.
   The trapezoidal map's correctness rests on these predicates, so they get
   direct coverage beyond the integration tests. *)

module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_point_create_validates () =
  checkb "valid point accepted" true (Point.dim (Point.create [ 0.0; 0.999 ]) = 2);
  Alcotest.check_raises "coordinate 1.0 rejected"
    (Invalid_argument "Point.create: coordinate out of [0,1)") (fun () ->
      ignore (Point.create [ 0.5; 1.0 ]));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Point.create: coordinate out of [0,1)") (fun () ->
      ignore (Point.create [ -0.1 ]))

let test_point_distance () =
  let a = Point.create [ 0.0; 0.0 ] and b = Point.create [ 0.3; 0.4 ] in
  checkf "euclidean" 0.5 (Point.dist a b);
  checkf "squared" 0.25 (Point.dist_sq a b);
  checkf "self distance" 0.0 (Point.dist a a);
  Alcotest.check_raises "dimension mismatch" (Invalid_argument "Point.dist: dimension mismatch")
    (fun () -> ignore (Point.dist a (Point.create [ 0.5 ])))

let test_point_grid_roundtrip () =
  let rng = Prng.create 3 in
  for _ = 1 to 500 do
    let p = Point.create [ Prng.float rng 1.0; Prng.float rng 1.0 ] in
    let g = Point.to_grid p in
    Array.iter (fun c -> checkb "grid in range" true (c >= 0 && c < Point.grid_size)) g;
    let q = Point.of_grid g in
    checkb "roundtrip within resolution" true (Point.dist p q < 2.0 /. float_of_int Point.grid_size *. 2.0)
  done

let test_segment_normalizes () =
  let s = Segment.make ~id:7 (0.8, 0.2) (0.1, 0.9) in
  let (x0, y0), (x1, y1) = Segment.endpoints s in
  checkb "x0 < x1 after normalization" true (x0 < x1);
  checkf "left endpoint" 0.1 x0;
  checkf "left y" 0.9 y0;
  checkf "right endpoint" 0.8 x1;
  checkf "right y" 0.2 y1;
  Alcotest.(check int) "id kept" 7 (Segment.id s);
  Alcotest.check_raises "vertical rejected" (Invalid_argument "Segment.make: vertical segment")
    (fun () -> ignore (Segment.make (0.5, 0.1) (0.5, 0.9)))

let test_segment_y_at () =
  let s = Segment.make (0.0, 0.0) (0.9999, 0.9999) in
  checkf "midpoint" 0.5 (Segment.y_at s 0.5);
  checkf "left end" 0.0 (Segment.y_at s 0.0);
  checkf "interior" 0.25 (Segment.y_at s 0.25)

let test_segment_crosses () =
  let a = Segment.make (0.2, 0.2) (0.8, 0.8) in
  let b = Segment.make (0.2, 0.8) (0.8, 0.2) in
  let c = Segment.make (0.2, 0.9) (0.8, 0.95) in
  checkb "X crossing" true (Segment.crosses a b);
  checkb "parallel-ish no crossing" false (Segment.crosses a c);
  (* Shared endpoints do not count as crossings. *)
  let d = Segment.make (0.8, 0.8) (0.9, 0.1) in
  checkb "shared endpoint" false (Segment.crosses a d);
  (* Touching at an interior point of one segment counts. *)
  let e = Segment.make (0.3, 0.7) (0.7, 0.3) in
  checkb "proper interior crossing" true (Segment.crosses a e)

let qcheck_crosses_symmetric =
  QCheck.Test.make ~name:"segment crossing is symmetric" ~count:300
    QCheck.(quad (pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
              (pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
              (pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
              (pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0)))
    (fun ((ax, ay), (bx, by), (cx, cy), (dx, dy)) ->
      QCheck.assume (ax <> bx && cx <> dx);
      let s1 = Segment.make (ax, ay) (bx, by) in
      let s2 = Segment.make (cx, cy) (dx, dy) in
      Segment.crosses s1 s2 = Segment.crosses s2 s1)

let qcheck_y_at_monotone_on_line =
  QCheck.Test.make ~name:"y_at is linear interpolation" ~count:300
    QCheck.(pair (float_bound_exclusive 0.5) (float_bound_exclusive 0.5))
    (fun (y0, dy) ->
      let s = Segment.make (0.1, y0) (0.9, y0 +. dy) in
      let mid = Segment.y_at s 0.5 in
      Float.abs (mid -. (y0 +. (dy /. 2.0))) < 1e-9)

let suite =
  [
    Alcotest.test_case "point create validates" `Quick test_point_create_validates;
    Alcotest.test_case "point distance" `Quick test_point_distance;
    Alcotest.test_case "point grid roundtrip" `Quick test_point_grid_roundtrip;
    Alcotest.test_case "segment normalizes" `Quick test_segment_normalizes;
    Alcotest.test_case "segment y_at" `Quick test_segment_y_at;
    Alcotest.test_case "segment crosses" `Quick test_segment_crosses;
    QCheck_alcotest.to_alcotest qcheck_crosses_symmetric;
    QCheck_alcotest.to_alcotest qcheck_y_at_monotone_on_line;
  ]
