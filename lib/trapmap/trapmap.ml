module Segment = Skipweb_geom.Segment
module Presort = Skipweb_util.Presort

type trap = {
  (* Mutable only so the batch commit pass can renumber provisionally
     built trapezoids; never reassigned once a trapezoid is visible to
     readers. *)
  mutable tid : int;
  top : Segment.t option;  (* None = bounding box top, y = 1 *)
  bot : Segment.t option;  (* None = bounding box bottom, y = 0 *)
  lx : float;
  rx : float;
}

type t = {
  mutable segs : Segment.t list;
  mutable alive : trap list;
  mutable next_id : int;
  xs : (float, unit) Hashtbl.t;  (* endpoint abscissae already used *)
}

let empty () =
  let box = { tid = 0; top = None; bot = None; lx = 0.0; rx = 1.0 } in
  { segs = []; alive = [ box ]; next_id = 1; xs = Hashtbl.create 16 }

let segment_count t = List.length t.segs
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

(* The refinement core shared by the sequential and batch write paths:
   replace the corridor of trapezoids crossed by [s] in [alive] with its
   refinement. Pure with respect to the map: new trapezoids come from
   [fresh] and the caller owns all bookkeeping (alive list, segs, xs,
   ids). Returns [(created, crossed, alive')] with [created] in the fixed
   order left, right, uppers (left to right), lowers (left to right) and
   [crossed] sorted by left abscissa. *)
let apply_segment ~fresh ~alive s =
  let (px, _), (qx, _) = Segment.endpoints s in
  let crossed =
    List.filter (fun tr -> seg_intersects_trap s tr) alive
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
      let left = fresh ~top:first.top ~bot:first.bot ~lx:first.lx ~rx:px in
      let right = fresh ~top:last.top ~bot:last.bot ~lx:qx ~rx:last.rx in
      let uppers =
        merge_side
          ~boundary_of:(fun tr -> tr.top)
          ~mk:(fun top lx rx -> fresh ~top ~bot:(Some s) ~lx ~rx)
          ~px ~qx crossed
      in
      let lowers =
        merge_side
          ~boundary_of:(fun tr -> tr.bot)
          ~mk:(fun bot lx rx -> fresh ~top:(Some s) ~bot ~lx ~rx)
          ~px ~qx crossed
      in
      let created = (left :: right :: uppers) @ lowers in
      (* Physical membership, not tid equality: the batch engine builds with
         placeholder tids, and the crossed trapezoids are by construction
         the same heap objects as the [alive] entries. *)
      let alive' = created @ List.filter (fun tr -> not (List.memq tr crossed)) alive in
      (created, crossed, alive')

let insert_delta t s =
  validate_new_segment t s;
  let created, crossed, alive = apply_segment ~fresh:(fresh t) ~alive:t.alive s in
  t.alive <- alive;
  let (x0, _), (x1, _) = Segment.endpoints s in
  Hashtbl.replace t.xs x0 ();
  Hashtbl.replace t.xs x1 ();
  t.segs <- s :: t.segs;
  (List.map trap_id created, List.map trap_id crossed)

let insert t s = ignore (insert_delta t s)

(* ---- Batch writes ---- *)

let placeholder_tid = -1

(* Pairwise validation inside the batch itself: the same conditions
   {!validate_new_segment} enforces against already-inserted segments,
   checked up front so an invalid batch is rejected before any mutation.
   (The per-key loop would stop at the first offender having already
   applied its predecessors — failing atomically is deliberately
   stronger.) *)
let validate_batch_pairs segs =
  let m = Array.length segs in
  for i = 0 to m - 1 do
    let ((xi0, _) as p), ((xi1, _) as q) = Segment.endpoints segs.(i) in
    for j = i + 1 to m - 1 do
      let ((xj0, _) as p'), ((xj1, _) as q') = Segment.endpoints segs.(j) in
      if xi0 = xj0 || xi0 = xj1 || xi1 = xj0 || xi1 = xj1 then
        invalid_arg "Trapmap: endpoint x-coordinates must be pairwise distinct";
      if Segment.crosses segs.(i) segs.(j) then
        invalid_arg "Trapmap: segments must be non-crossing";
      if p = p' || p = q' || q = p' || q = q' then
        invalid_arg "Trapmap: segments must not share endpoints"
    done
  done

let insert_batch t segs =
  let m = Array.length segs in
  if m = 0 then []
  else begin
    (* 1. Validation — each segment against the pre-state, then pairwise
       inside the batch. All of it runs before any mutation. *)
    Array.iter (validate_new_segment t) segs;
    validate_batch_pairs segs;
    (* 2. Crossed-corridor discovery against the pre-state alive list —
       the dominant O(m * T) cost. *)
    let pre_alive = t.alive in
    let pre_crossed =
      Array.map (fun s -> List.filter (fun tr -> seg_intersects_trap s tr) pre_alive) segs
    in
    (* 3. Union-find over batch positions: two segments interact only if
       their pre-state corridors share a trapezoid. Non-crossing segments
       with disjoint pre-state corridors refine disjoint regions — a
       trapezoid created inside one corridor stays inside the union of
       that corridor's pre-state regions, so a segment of another
       component can never cross it. *)
    let parent = Array.init m Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then begin
        let a = min ri rj and b = max ri rj in
        parent.(b) <- a
      end
    in
    let owner = Hashtbl.create (2 * m) in
    for i = 0 to m - 1 do
      List.iter
        (fun tr ->
          match Hashtbl.find_opt owner tr.tid with
          | None -> Hashtbl.add owner tr.tid i
          | Some j -> union i j)
        pre_crossed.(i)
    done;
    (* Components in first-appearance (= ascending least member) order;
       members ascending; the local trapezoid universe is the dedup'd
       union of the members' pre-state corridors, in that same order —
       all deterministic, whatever the jobs count. *)
    let members_tbl = Hashtbl.create 16 in
    let roots_rev = ref [] in
    for i = 0 to m - 1 do
      let r = find i in
      match Hashtbl.find_opt members_tbl r with
      | None ->
          Hashtbl.add members_tbl r [ i ];
          roots_rev := r :: !roots_rev
      | Some l -> Hashtbl.replace members_tbl r (i :: l)
    done;
    let comps =
      List.rev !roots_rev
      |> List.map (fun r ->
             let members = List.rev (Hashtbl.find members_tbl r) in
             let seen = Hashtbl.create 16 in
             let universe =
               List.concat_map (fun i -> pre_crossed.(i)) members
               |> List.filter (fun tr ->
                      if Hashtbl.mem seen tr.tid then false
                      else begin
                        Hashtbl.add seen tr.tid ();
                        true
                      end)
             in
             (members, universe))
      |> Array.of_list
    in
    (* 4. Apply each component's segments in batch order over its own
       local universe, with placeholder ids. Each member's apply-time
       corridor is exactly what it would be in the per-key loop: traps of
       other components and untouched traps never intersect it (they
       would have merged components), so each refinement scans only its
       component's universe instead of the whole map. *)
    let per_seg = Array.make m ([], []) in
    let final_alive =
      Array.map
        (fun (members, universe) ->
          let alive = ref universe in
          List.iter
            (fun i ->
              let fresh ~top ~bot ~lx ~rx = { tid = placeholder_tid; top; bot; lx; rx } in
              let created, crossed, alive' = apply_segment ~fresh ~alive:!alive segs.(i) in
              alive := alive';
              per_seg.(i) <- (created, crossed))
            members;
          !alive)
        comps
    in
    (* 5. Commit in global batch order: number created
       trapezoids exactly as the per-key loop would have, and replay the
       segs / xs bookkeeping. A crossed trapezoid that was itself created
       in this batch is already renumbered when its tid is read, because
       its creator occupies an earlier batch position. *)
    let deltas = Array.make m ([], []) in
    for i = 0 to m - 1 do
      let created, crossed = per_seg.(i) in
      List.iter
        (fun tr ->
          tr.tid <- t.next_id;
          t.next_id <- t.next_id + 1)
        created;
      deltas.(i) <- (List.map trap_id created, List.map trap_id crossed);
      let (x0, _), (x1, _) = Segment.endpoints segs.(i) in
      Hashtbl.replace t.xs x0 ();
      Hashtbl.replace t.xs x1 ();
      t.segs <- segs.(i) :: t.segs
    done;
    let touched = Hashtbl.create (2 * m) in
    Array.iter
      (fun (_members, universe) ->
        List.iter (fun tr -> Hashtbl.replace touched tr.tid ()) universe)
      comps;
    let untouched = List.filter (fun tr -> not (Hashtbl.mem touched tr.tid)) pre_alive in
    t.alive <- Array.fold_left (fun acc l -> acc @ l) [] final_alive @ untouched;
    Array.to_list deltas
  end

let build segments =
  let t = empty () in
  ignore (insert_batch t segments);
  t

let of_sorted segments =
  (* Canonical construction order: ascending endpoint tuples. From the
     empty map every segment crosses the single box trapezoid, so the
     whole batch is one component and the apply pass degenerates to the
     insertion loop; the component engine pays on {!insert_batch} into an
     already-populated map, where corridors are small and mostly
     disjoint. *)
  build
    (Presort.sorted_distinct segments ~cmp:(fun a b ->
         compare (Segment.endpoints a) (Segment.endpoints b)))

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = segment_count t in
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
