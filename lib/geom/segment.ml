type t = { x0 : float; y0 : float; x1 : float; y1 : float; id : int }

let make ?(id = -1) (xa, ya) (xb, yb) =
  if xa = xb then invalid_arg "Segment.make: vertical segment";
  if xa < xb then { x0 = xa; y0 = ya; x1 = xb; y1 = yb; id }
  else { x0 = xb; y0 = yb; x1 = xa; y1 = ya; id }

let id s = s.id

let y_at s x =
  assert (x >= s.x0 && x <= s.x1);
  if x = s.x0 then s.y0
  else if x = s.x1 then s.y1
  else s.y0 +. ((s.y1 -. s.y0) *. (x -. s.x0) /. (s.x1 -. s.x0))

(* Cross product of (b - a) and (c - a). *)
let orient (ax, ay) (bx, by) (cx, cy) =
  ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax))

let crosses a b =
  let a0 = (a.x0, a.y0) and a1 = (a.x1, a.y1) in
  let b0 = (b.x0, b.y0) and b1 = (b.x1, b.y1) in
  let shared (p : float * float) (q : float * float) = p = q in
  if shared a0 b0 || shared a0 b1 || shared a1 b0 || shared a1 b1 then false
  else
    let d1 = orient a0 a1 b0 and d2 = orient a0 a1 b1 in
    let d3 = orient b0 b1 a0 and d4 = orient b0 b1 a1 in
    d1 *. d2 < 0.0 && d3 *. d4 < 0.0

let endpoints s = ((s.x0, s.y0), (s.x1, s.y1))

let to_string s = Printf.sprintf "seg#%d (%.3f,%.3f)-(%.3f,%.3f)" s.id s.x0 s.y0 s.x1 s.y1
