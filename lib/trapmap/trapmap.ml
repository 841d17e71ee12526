module Segment = Skipweb_geom.Segment

type trap = {
  tid : int;
  top : Segment.t option;  (* None = bounding box top, y = 1 *)
  bot : Segment.t option;  (* None = bounding box bottom, y = 0 *)
  lx : float;
  rx : float;
}

type t = {
  mutable segs : Segment.t list;
  mutable nsegs : int;  (* List.length segs, kept so counting is O(1) *)
  mutable alive : trap list;
  mutable next_id : int;
  xs : (float, unit) Hashtbl.t;  (* endpoint abscissae already used *)
}

let empty () =
  let box = { tid = 0; top = None; bot = None; lx = 0.0; rx = 1.0 } in
  { segs = []; nsegs = 0; alive = [ box ]; next_id = 1; xs = Hashtbl.create 16 }

let segment_count t = t.nsegs
let trap_count t = List.length t.alive
let traps t = t.alive

let trap_id tr = tr.tid
let trap_top tr = tr.top
let trap_bottom tr = tr.bot
let trap_xspan tr = (tr.lx, tr.rx)

let boundary_y b x = match b with None -> assert false | Some s -> Segment.y_at s x

let top_y tr x = match tr.top with None -> 1.0 | Some _ -> boundary_y tr.top x
let bot_y tr x = match tr.bot with None -> 0.0 | Some _ -> boundary_y tr.bot x

let trap_contains tr (x, y) =
  tr.lx < x && x < tr.rx && bot_y tr x < y && y < top_y tr x

let trap_area tr =
  let h x = top_y tr x -. bot_y tr x in
  (tr.rx -. tr.lx) *. (h tr.lx +. h tr.rx) /. 2.0

(* The open x-subinterval of (lo, hi) where a linear function with endpoint
   values (glo, ghi) is strictly positive. *)
let positive_subinterval glo ghi lo hi =
  if glo > 0.0 && ghi > 0.0 then Some (lo, hi)
  else if glo <= 0.0 && ghi <= 0.0 then None
  else
    let r = lo +. ((hi -. lo) *. glo /. (glo -. ghi)) in
    if glo > 0.0 then Some (lo, r) else Some (r, hi)

let seg_intersects_trap s tr =
  let (x0, _), (x1, _) = Segment.endpoints s in
  let lo = Float.max x0 tr.lx and hi = Float.min x1 tr.rx in
  if lo >= hi then false
  else
    (* Both (top - s) and (s - bot) must be positive somewhere on (lo, hi);
       each is linear in x. *)
    let g1 l = top_y tr l -. Segment.y_at s l in
    let g2 l = Segment.y_at s l -. bot_y tr l in
    match
      ( positive_subinterval (g1 lo) (g1 hi) lo hi,
        positive_subinterval (g2 lo) (g2 hi) lo hi )
    with
    | Some (a1, b1), Some (a2, b2) -> Float.max a1 a2 < Float.min b1 b2
    | None, _ | Some _, None -> false

let trap_intersects t1 t2 =
  let lo = Float.max t1.lx t2.lx and hi = Float.min t1.rx t2.rx in
  if lo >= hi then false
  else
    (* f(x) = min(top1, top2) - max(bot1, bot2) is concave piecewise linear;
       it is positive somewhere on [lo, hi] iff it is positive at an
       endpoint or at a kink (where the two tops or the two bots cross). *)
    let f x = Float.min (top_y t1 x) (top_y t2 x) -. Float.max (bot_y t1 x) (bot_y t2 x) in
    let kink g1 g2 =
      (* abscissa where two linear functions g1, g2 agree, if inside *)
      let d_lo = g1 lo -. g2 lo and d_hi = g1 hi -. g2 hi in
      if (d_lo > 0.0 && d_hi < 0.0) || (d_lo < 0.0 && d_hi > 0.0) then
        Some (lo +. ((hi -. lo) *. d_lo /. (d_lo -. d_hi)))
      else None
    in
    let candidates =
      [ Some lo; Some hi; kink (top_y t1) (top_y t2); kink (bot_y t1) (bot_y t2) ]
    in
    List.exists (function Some x -> f x > 1e-12 | None -> false) candidates

let locate_opt t p = List.find_opt (fun tr -> trap_contains tr p) t.alive

let locate t p =
  match locate_opt t p with Some tr -> tr | None -> raise Not_found

let conflicts t foreign_trap = List.filter (trap_intersects foreign_trap) t.alive

let point_interior tr (x, y) = trap_contains tr (x, y)

let conflict_formula ~segments tr =
  let a = ref 0 and b = ref 0 and c = ref 0 in
  Array.iter
    (fun s ->
      if seg_intersects_trap s tr then begin
        let p, q = Segment.endpoints s in
        let inside = (if point_interior tr p then 1 else 0) + if point_interior tr q then 1 else 0 in
        match inside with
        | 0 -> incr a
        | 1 -> incr b
        | 2 -> incr c
        | _ -> assert false
      end)
    segments;
  (1 + !a + (2 * !b) + (3 * !c), (!a, !b, !c))

let validate_new_segment t s =
  let (x0, y0), (x1, y1) = Segment.endpoints s in
  let in_box (x, y) = x > 0.0 && x < 1.0 && y > 0.0 && y < 1.0 in
  if not (in_box (x0, y0) && in_box (x1, y1)) then
    invalid_arg "Trapmap: segment endpoints must lie strictly inside the unit square";
  if Hashtbl.mem t.xs x0 || Hashtbl.mem t.xs x1 || x0 = x1 then
    invalid_arg "Trapmap: endpoint x-coordinates must be pairwise distinct";
  List.iter
    (fun old ->
      if Segment.crosses old s then invalid_arg "Trapmap: segments must be non-crossing";
      let op, oq = Segment.endpoints old in
      let p, q = Segment.endpoints s in
      if op = p || op = q || oq = p || oq = q then
        invalid_arg "Trapmap: segments must not share endpoints")
    t.segs

let fresh t ~top ~bot ~lx ~rx =
  let tr = { tid = t.next_id; top; bot; lx; rx } in
  t.next_id <- t.next_id + 1;
  tr

let same_boundary a b =
  match (a, b) with
  | None, None -> true
  | Some s1, Some s2 -> Segment.endpoints s1 = Segment.endpoints s2
  | None, Some _ | Some _, None -> false

(* Partition the crossed trapezoids into maximal runs sharing the same
   boundary on one side, producing the merged new trapezoids on that side
   of the inserted segment. *)
let merge_side ~boundary_of ~mk ~px ~qx crossed =
  let rec runs acc current = function
    | [] -> List.rev (List.rev current :: acc)
    | tr :: rest -> (
        match current with
        | [] -> runs acc [ tr ] rest
        | prev :: _ when same_boundary (boundary_of prev) (boundary_of tr) ->
            runs acc (tr :: current) rest
        | _ :: _ -> runs (List.rev current :: acc) [ tr ] rest)
  in
  let groups = runs [] [] crossed in
  List.map
    (fun group ->
      match group with
      | [] -> assert false
      | first :: _ ->
          let last = List.nth group (List.length group - 1) in
          let lx = Float.max first.lx px and rx = Float.min last.rx qx in
          assert (lx < rx);
          mk (boundary_of first) lx rx)
    groups

(* Replace the corridor of trapezoids crossed by [s] with its
   refinement, numbering the new trapezoids in the fixed order left,
   right, uppers (left to right), lowers (left to right). Returns the
   created and the crossed ids, the crossed sorted by left abscissa. *)
let insert_delta t s =
  validate_new_segment t s;
  let (px, _), (qx, _) = Segment.endpoints s in
  let crossed =
    List.filter (fun tr -> seg_intersects_trap s tr) t.alive
    |> List.sort (fun a b -> compare a.lx b.lx)
  in
  match crossed with
  | [] -> invalid_arg "Trapmap: segment intersects no trapezoid (outside the box?)"
  | first :: _ ->
      let last = List.nth crossed (List.length crossed - 1) in
      (* Contiguity of the crossed corridor. *)
      let rec check_contig = function
        | a :: (b :: _ as rest) ->
            if a.rx <> b.lx then failwith "Trapmap: crossed trapezoids not contiguous";
            check_contig rest
        | [ _ ] | [] -> ()
      in
      check_contig crossed;
      assert (first.lx < px && px < first.rx);
      assert (last.lx < qx && qx < last.rx);
      let left = fresh t ~top:first.top ~bot:first.bot ~lx:first.lx ~rx:px in
      let right = fresh t ~top:last.top ~bot:last.bot ~lx:qx ~rx:last.rx in
      let uppers =
        merge_side
          ~boundary_of:(fun tr -> tr.top)
          ~mk:(fun top lx rx -> fresh t ~top ~bot:(Some s) ~lx ~rx)
          ~px ~qx crossed
      in
      let lowers =
        merge_side
          ~boundary_of:(fun tr -> tr.bot)
          ~mk:(fun bot lx rx -> fresh t ~top:(Some s) ~bot ~lx ~rx)
          ~px ~qx crossed
      in
      let created = (left :: right :: uppers) @ lowers in
      t.alive <- created @ List.filter (fun tr -> not (List.memq tr crossed)) t.alive;
      let (x0, _), (x1, _) = Segment.endpoints s in
      Hashtbl.replace t.xs x0 ();
      Hashtbl.replace t.xs x1 ();
      t.segs <- s :: t.segs;
      t.nsegs <- t.nsegs + 1;
      (List.map trap_id created, List.map trap_id crossed)

let insert t s = ignore (insert_delta t s)

let build segments =
  let t = empty () in
  Array.iter (insert t) segments;
  t

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = segment_count t in
  if n <> List.length t.segs then fail "Trapmap: segment count %d for %d segments" n (List.length t.segs);
  let count = trap_count t in
  if count <> (3 * n) + 1 then fail "Trapmap: %d traps for %d segments (expected %d)" count n ((3 * n) + 1);
  List.iter
    (fun tr ->
      if not (tr.lx < tr.rx) then fail "Trapmap: empty x-span";
      let mid = (tr.lx +. tr.rx) /. 2.0 in
      if not (bot_y tr mid < top_y tr mid) then fail "Trapmap: inverted trapezoid";
      if top_y tr tr.lx < bot_y tr tr.lx -. 1e-9 then fail "Trapmap: crossing boundaries (left)";
      if top_y tr tr.rx < bot_y tr tr.rx -. 1e-9 then fail "Trapmap: crossing boundaries (right)")
    t.alive;
  let area = List.fold_left (fun acc tr -> acc +. trap_area tr) 0.0 t.alive in
  if Float.abs (area -. 1.0) > 1e-6 then fail "Trapmap: areas sum to %.9f, expected 1" area;
  let arr = Array.of_list t.alive in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      if trap_intersects arr.(i) arr.(j) then
        fail "Trapmap: trapezoids %d and %d overlap" arr.(i).tid arr.(j).tid
    done
  done
