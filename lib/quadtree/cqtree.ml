module Point = Skipweb_geom.Point
module Pool = Skipweb_util.Pool
module Presort = Skipweb_util.Presort

let bits = Point.grid_bits
let grid_mask = (1 lsl bits) - 1

(* Struct-of-arrays arena: node [s] of the tree is slot [s] of every
   column, and each word belongs to one slot, so shards of a bulk build
   fill disjoint slot ranges without sharing a word.

   - [ids]: the node's id.
   - [meta]: the subtree size above the quadrant (the node's index inside
     its parent's cube, [max_dim] bits) above the cube depth (6 bits; the
     cube's side is 2^(bits - depth) grid cells). A free slot holds -1.
   - [links]: first child and next sibling, each a slot plus one in
     [link_bits] bits, so 0 means none. A free slot keeps the next free
     slot in the sibling half and 0 in the other.
   - [corners]: [cwords_of tdim] = ceil(tdim / 2) words per slot, grid
     coordinates [2j] and [2j + 1] of the cube's aligned corner in the low
     and high [bits] bits of word [j] (the high half is 0 past the last
     dimension).

   A 2-d node costs four words, a 3-d node five. Slots [0, used) have been
   handed out; the free ones among them are chained from [free]. *)
let depth_bits = 6
let quad_shift = depth_bits
let depth_mask = (1 lsl depth_bits) - 1
let link_bits = 31
let link_mask = (1 lsl link_bits) - 1

(* Sizes never exceed the slot count, so a size needs [link_bits] bits and
   the quadrant field gets the rest of a non-negative 63-bit int. *)
let size_shift = 62 - link_bits
let max_dim = size_shift - quad_shift
let quad_mask = (1 lsl max_dim) - 1
let max_slots = link_mask
let () = assert (bits <= depth_mask && 2 * bits <= 62)

type t = {
  tdim : int;
  mutable ids : int array;
  mutable meta : int array;
  mutable links : int array;
  mutable corners : int array;
  mutable used : int;
  mutable free : int;  (* head of the free-slot list, -1 if empty *)
  mutable next_id : int;
  mutable npoints : int;
  mutable nnodes : int;
  (* Node churn log for the delta-reporting update API. *)
  mutable logging : bool;
  mutable added_log : int list;
  mutable removed_log : int list;
}

type node = { tree : t; ix : int }

type slot = At_point | Empty_quadrant of int | Outside_child of int

type location = { node : node; slot : slot }

let dim t = t.tdim
let size t = t.npoints
let node_count t = t.nnodes
let handle t ix = { tree = t; ix }
let root t = handle t 0
let cwords_of dimension = (dimension + 1) / 2
let[@inline] depth_at t s = t.meta.(s) land depth_mask
let[@inline] quad_at t s = (t.meta.(s) lsr quad_shift) land quad_mask
let[@inline] size_at t s = t.meta.(s) lsr size_shift
let[@inline] add_size t s k = t.meta.(s) <- t.meta.(s) + (k lsl size_shift)
let[@inline] pack_meta ~size ~depth ~quad = (size lsl size_shift) lor (quad lsl quad_shift) lor depth
let[@inline] first_child t s = (t.links.(s) land link_mask) - 1
let[@inline] next_sibling t s = (t.links.(s) lsr link_bits) - 1
let[@inline] pack_links ~first ~next = (first + 1) lor ((next + 1) lsl link_bits)
let set_first_child t s c = t.links.(s) <- (t.links.(s) land lnot link_mask) lor (c + 1)
let set_next_sibling t s c = t.links.(s) <- (t.links.(s) land link_mask) lor ((c + 1) lsl link_bits)

let[@inline] coord t s i =
  (t.corners.((s * cwords_of t.tdim) + (i lsr 1)) lsr (bits * (i land 1))) land grid_mask

(* A loop: [Array.init] over [coord t s] would allocate a closure per
   call on the query path. *)
let corner_of t s =
  let c = Array.make t.tdim 0 in
  for i = 0 to t.tdim - 1 do
    c.(i) <- coord t s i
  done;
  c

(* Corner word [w] of the depth-[depth] cube containing grid point [g]. *)
let[@inline] corner_word g ~depth w =
  let shift = bits - depth and i = 2 * w in
  let lo = (g.(i) lsr shift) lsl shift in
  if i + 1 < Array.length g then lo lor (((g.(i + 1) lsr shift) lsl shift) lsl bits) else lo

(* Write slot [s]'s corner words, each once. *)
let set_corner t s ~depth g =
  let cw = cwords_of t.tdim in
  let base = s * cw in
  for w = 0 to cw - 1 do
    t.corners.(base + w) <- corner_word g ~depth w
  done

let node_id n = n.tree.ids.(n.ix)
let node_cube n = (depth_at n.tree n.ix, corner_of n.tree n.ix)
let subtree_size n = size_at n.tree n.ix

(* A node is a leaf exactly when its cube is a single grid cell: internal
   cubes enclose two distinct points. *)
let leaf_point t s = if depth_at t s = bits then Some (Point.of_grid (corner_of t s)) else None
let node_point n = leaf_point n.tree n.ix

let iter_children t s f =
  let c = ref (first_child t s) in
  while !c >= 0 do
    let next = next_sibling t !c in
    f !c;
    c := next
  done

let fold_children t s f acc =
  let acc = ref acc in
  iter_children t s (fun c -> acc := f !acc c);
  !acc

let bitlen x =
  let n = ref 0 and x = ref x in
  while !x <> 0 do
    incr n;
    x := !x lsr 1
  done;
  !n

(* Does the cube (depth k, corner) contain grid point p? *)
let cube_contains ~ndepth ~corner p =
  let shift = bits - ndepth in
  let ok = ref true in
  for i = 0 to Array.length p - 1 do
    if p.(i) lsr shift <> corner.(i) lsr shift then ok := false
  done;
  !ok

(* Does slot [s]'s cube contain grid point p? A whole corner word at a
   time: the two coordinates must agree above the cube's side. *)
let slot_contains t s p =
  let shift = bits - depth_at t s and cw = cwords_of t.tdim in
  let above = (grid_mask lsr shift) lsl shift in
  let above = above lor (above lsl bits) and base = s * cw in
  let ok = ref true in
  for w = 0 to cw - 1 do
    if (t.corners.(base + w) lxor corner_word p ~depth:bits w) land above <> 0 then ok := false
  done;
  !ok

(* Quadrant index of p within a cube at depth k (0 <= k < bits). *)
let quadrant ~ndepth p =
  let pos = bits - ndepth - 1 in
  let q = ref 0 in
  for i = 0 to Array.length p - 1 do
    q := !q lor (((p.(i) lsr pos) land 1) lsl i)
  done;
  !q

(* Is cube (d2, c2) contained in cube (d1, c1)? *)
let cube_subset ~outer:(d1, c1) ~inner:(d2, c2) =
  d2 >= d1 && cube_contains ~ndepth:d1 ~corner:c1 c2

(* Does slot [s] hold exactly the cube (depth, corner)? The corner's
   coordinates must lie on the grid, which {!valid_cube} checks. *)
let slot_is_cube t s depth corner =
  depth_at t s = depth
  &&
  let cw = cwords_of t.tdim in
  let base = s * cw in
  let ok = ref true in
  for w = 0 to cw - 1 do
    if t.corners.(base + w) <> corner_word corner ~depth:bits w then ok := false
  done;
  !ok

(* ---------------- slots and child lists ---------------- *)

(* The layout's limits raise rather than wrap: a wider dimension would
   run the quadrant into the size, a slot past [max_slots] would not fit
   a link. *)
let check_dim dimension =
  if dimension < 1 || dimension > max_dim then
    invalid_arg (Printf.sprintf "Cqtree: dimension %d outside [1, %d]" dimension max_dim)

let create_arena dimension cap =
  check_dim dimension;
  if cap > max_slots then invalid_arg (Printf.sprintf "Cqtree: %d slots exceed %d" cap max_slots);
  {
    tdim = dimension;
    ids = Array.make cap 0;
    meta = Array.make cap 0;
    links = Array.make cap 0;
    corners = Array.make (cap * cwords_of dimension) 0;
    used = 0;
    free = -1;
    next_id = 0;
    npoints = 0;
    nnodes = 0;
    logging = false;
    added_log = [];
    removed_log = [];
  }

let grow_columns t =
  let cap = Array.length t.ids in
  if cap >= max_slots then invalid_arg (Printf.sprintf "Cqtree: a tree holds at most %d slots" max_slots);
  let cap' = min max_slots (cap + (cap / 8) + 4) in
  let grow a per =
    let b = Array.make (cap' * per) 0 in
    Array.blit a 0 b 0 (cap * per);
    b
  in
  t.ids <- grow t.ids 1;
  t.meta <- grow t.meta 1;
  t.links <- grow t.links 1;
  t.corners <- grow t.corners (cwords_of t.tdim)

let alloc_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- next_sibling t s;
    s
  end
  else begin
    if t.used = Array.length t.ids then grow_columns t;
    let s = t.used in
    t.used <- s + 1;
    s
  end

(* A fresh detached node of [size] points whose cube is the
   depth-[depth] cube containing grid point [g]; it takes the next id. *)
let fresh_node t ~depth ~size g =
  let s = alloc_slot t in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.ids.(s) <- id;
  t.meta.(s) <- pack_meta ~size ~depth ~quad:0;
  t.links.(s) <- 0;
  set_corner t s ~depth g;
  t.nnodes <- t.nnodes + 1;
  if t.logging then t.added_log <- id :: t.added_log;
  s

let drop_node t s =
  t.nnodes <- t.nnodes - 1;
  if t.logging then t.removed_log <- t.ids.(s) :: t.removed_log;
  t.meta.(s) <- -1;
  t.links.(s) <- pack_links ~first:(-1) ~next:t.free;
  t.free <- s

(* The child of [p] in quadrant [q], or -1. The hot walks below are
   top-level recursions, not local closures, so a step allocates nothing. *)
let rec sibling_in t c q = if c < 0 || quad_at t c = q then c else sibling_in t (next_sibling t c) q
let child_in t p q = sibling_in t (first_child t p) q

(* Child lists keep the order the charged walks follow: a new child goes
   to the front. *)
let attach_child t p q c =
  assert (child_in t p q < 0);
  t.meta.(c) <- (t.meta.(c) land lnot (quad_mask lsl quad_shift)) lor (q lsl quad_shift);
  set_next_sibling t c (first_child t p);
  set_first_child t p c

let detach_child t p q =
  let rec go prev c =
    assert (c >= 0);
    if quad_at t c = q then
      if prev < 0 then set_first_child t p (next_sibling t c)
      else set_next_sibling t prev (next_sibling t c)
    else go c (next_sibling t c)
  in
  go (-1) (first_child t p)

let replace_child t p q c =
  detach_child t p q;
  attach_child t p q c

(* The nodes whose cubes contain a grid point form one root path, and
   the child in the point's quadrant is the next node on it. Each child
   is strictly deeper than its parent, so a walk down that path takes at
   most [bits] + 1 steps. Every cube lookup is such a walk. *)

(* The first node at depth >= [depth] on [g]'s walk down from slot [s]
   (the root, for a lookup), or -1 if the walk meets an empty quadrant
   first. Needs [depth <= bits]. *)
let rec walk t depth g s =
  let d = depth_at t s in
  if d >= depth then s
  else
    let c = child_in t s (quadrant ~ndepth:d g) in
    if c < 0 then -1 else walk t depth g c

(* A coordinate off the grid would carry into its neighbour in a packed
   corner word. *)
let rec on_grid corner i = i < 0 || (corner.(i) lsr bits = 0 && on_grid corner (i - 1))

let valid_cube t depth corner =
  depth >= 0 && depth <= bits && Array.length corner = t.tdim && on_grid corner (t.tdim - 1)

(* Slot of the node with cube (depth, corner), or -1. *)
let find_cube t depth corner =
  if not (valid_cube t depth corner) then -1
  else
    let s = walk t depth corner 0 in
    if s >= 0 && slot_is_cube t s depth corner then s else -1

(* ---------------- bulk build ---------------- *)

(* z-order (Morton order) comparator on grid points, without materializing
   the interleaved key (which would overflow 63 bits already at d = 3):
   the deciding dimension is the one holding the most significant
   interleaved differing bit. Dimension [i] contributes bit [i] of every
   quadrant index, so at equal bit positions the higher dimension is the
   more significant — which makes a z-sorted run list every aligned cube's
   quadrants contiguously, in ascending quadrant-index order. *)
let cmp_zorder a b =
  let d = Array.length a in
  let best = ref (-1) and best_dim = ref 0 in
  for i = 0 to d - 1 do
    let x = a.(i) lxor b.(i) in
    if x <> 0 then begin
      let key = (bitlen x * d) + i in
      if key > !best then begin
        best := key;
        best_dim := i
      end
    end
  done;
  if !best < 0 then 0 else compare a.(!best_dim) b.(!best_dim)

(* The interleaved key itself, when [d * bits] fits a tagged int (d = 2 at
   30 grid bits does; d >= 3 does not): the presort then runs on a cheap
   monomorphic int compare instead of [cmp_zorder]'s per-dimension scan,
   which is the difference between the sort and the tree construction
   dominating a 10⁶-point bulk build. Bit layout matches [cmp_zorder]:
   within each grid-bit position, dimension i lands at relative bit i. *)
let morton_key g =
  let d = Array.length g in
  let r = ref 0 in
  for bit = bits - 1 downto 0 do
    for i = d - 1 downto 0 do
      r := (!r lsl 1) lor ((g.(i) lsr bit) land 1)
    done
  done;
  !r

(* The one z-order sort key, shared by [zorder] and [of_sorted]: the
   Morton key when [d * bits] fits an int, so a sort runs on a cheap
   monomorphic compare; the grid point itself, under [cmp_zorder],
   otherwise. Either way two keys compare equal exactly when their grid
   points are equal. *)
type zkey = Zkey : (int array -> 'k) * ('k -> 'k -> int) -> zkey

let zkey d = if d * bits <= 62 then Zkey (morton_key, Int.compare) else Zkey (Fun.id, cmp_zorder)

(* Points of differing dimensions, which no build accepts, order by
   dimension first, so the order is total on any batch. *)
let zorder points =
  let d = if Array.length points = 0 then 0 else Point.dim points.(0) in
  if Array.for_all (fun p -> Point.dim p = d) points then begin
    let (Zkey (key, cmp)) = zkey d in
    Presort.order ~cmp (Array.map (fun p -> key (Point.to_grid p)) points)
  end
  else
    Presort.order
      ~cmp:(fun a b ->
        match Int.compare (Array.length a) (Array.length b) with 0 -> cmp_zorder a b | c -> c)
      (Array.map Point.to_grid points)

(* Depth of the smallest aligned cube containing two grid points. For a
   z-sorted slice, applied to its first and last element, this is the
   depth of the smallest cube containing the whole slice: all points agree
   on every interleaved bit above the highest one on which any pair
   differs, and the slice's extremes differ exactly there. *)
let common_depth dimension a b =
  let depth = ref bits in
  for i = 0 to dimension - 1 do
    let common = bits - bitlen (a.(i) lxor b.(i)) in
    if common < !depth then depth := common
  done;
  !depth

(* Nodes of the compressed subtree over the z-sorted distinct slice
   [gs.(lo .. hi - 1)]: its leaves plus one internal node per distinct
   enclosing cube of adjacent pairs. Pairs [i < j] share that cube exactly
   when they meet at the same depth and no pair between them meets
   shallower, which a stack of strictly increasing depths counts in one
   pass. *)
let count_slice dimension gs lo hi =
  let stack = Array.make (bits + 1) 0 and top = ref 0 and internal = ref 0 in
  for i = lo to hi - 2 do
    let d = common_depth dimension gs.(i) gs.(i + 1) in
    while !top > 0 && stack.(!top - 1) > d do
      decr top
    done;
    if !top = 0 || stack.(!top - 1) < d then begin
      stack.(!top) <- d;
      incr top;
      incr internal
    end
  done;
  hi - lo + !internal

(* Write the compressed subtree over the slice in preorder from slot [s]
   (its id too), children in ascending quadrant order; returns the next
   free slot. Quadrant groups are contiguous in the slice (see
   {!cmp_zorder}), so children split off by scanning group boundaries left
   to right. A node's first child is the next slot and its next sibling,
   when [has_next], the slot after its subtree, so each word of the slot
   is written once. Disjoint slot ranges let shards fill concurrently. *)
let rec fill_slice t gs lo hi s ~quad ~has_next =
  t.ids.(s) <- s;
  let next =
    if hi - lo = 1 then begin
      t.meta.(s) <- pack_meta ~size:1 ~depth:bits ~quad;
      set_corner t s ~depth:bits gs.(lo);
      s + 1
    end
    else begin
      let k = common_depth t.tdim gs.(lo) gs.(hi - 1) in
      assert (k < bits);
      t.meta.(s) <- pack_meta ~size:(hi - lo) ~depth:k ~quad;
      set_corner t s ~depth:k gs.(lo);
      let next = ref (s + 1) and i = ref lo in
      while !i < hi do
        let q = quadrant ~ndepth:k gs.(!i) in
        let j = ref (!i + 1) in
        while !j < hi && quadrant ~ndepth:k gs.(!j) = q do
          incr j
        done;
        next := fill_slice t gs !i !j !next ~quad:q ~has_next:(!j < hi);
        i := !j
      done;
      !next
    end
  in
  t.links.(s) <-
    pack_links ~first:(if next > s + 1 then s + 1 else -1) ~next:(if has_next then next else -1);
  next

let of_sorted ?pool ~dim:dimension points =
  check_dim dimension;
  Array.iter
    (fun p ->
      if Point.dim p <> dimension then invalid_arg "Cqtree.of_sorted: dimension mismatch")
    points;
  let gs = Array.map Point.to_grid points in
  (* Keys compare equal only on equal grid points, so the
     decorate/sort/strip round trip deduplicates exactly like a direct
     [cmp_zorder] presort and yields the same sequence. *)
  let gs =
    let (Zkey (key, cmp)) = zkey dimension in
    Array.map snd
      (Presort.sorted_distinct ?pool
         ~cmp:(fun (a, _) (b, _) -> cmp a b)
         (Array.map (fun g -> (key g, g)) gs))
  in
  let n = Array.length gs in
  (* The root's quadrant groups are the shards: each is counted, then
     filled into its own preorder slot range, independently. *)
  let rev_groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let q = quadrant ~ndepth:0 gs.(!i) in
    let j = ref (!i + 1) in
    while !j < n && quadrant ~ndepth:0 gs.(!j) = q do
      incr j
    done;
    rev_groups := (q, !i, !j) :: !rev_groups;
    i := !j
  done;
  let groups = Array.of_list (List.rev !rev_groups) in
  let ngroups = Array.length groups in
  let per_group f =
    match pool with
    | Some p when ngroups > 1 ->
        Pool.parallel_for_tasks p ~weights:(Array.map (fun (_, lo, hi) -> hi - lo) groups) f
    | _ ->
        for gi = 0 to ngroups - 1 do
          f gi
        done
  in
  let counts = Array.make ngroups 0 in
  per_group (fun gi ->
      let _, lo, hi = groups.(gi) in
      counts.(gi) <- count_slice dimension gs lo hi);
  let starts = Array.make ngroups 0 in
  let total = ref 1 in
  Array.iteri
    (fun gi c ->
      starts.(gi) <- !total;
      total := !total + c)
    counts;
  let total = !total in
  let t = create_arena dimension total in
  t.meta.(0) <- pack_meta ~size:n ~depth:0 ~quad:0;
  t.links.(0) <- pack_links ~first:(if ngroups > 0 then 1 else -1) ~next:(-1);
  per_group (fun gi ->
      let q, lo, hi = groups.(gi) in
      let next = fill_slice t gs lo hi starts.(gi) ~quad:q ~has_next:(gi < ngroups - 1) in
      assert (next = starts.(gi) + counts.(gi)));
  t.used <- total;
  t.next_id <- total;
  t.nnodes <- total;
  t.npoints <- n;
  t

let build ~dim points = of_sorted ~dim points

(* ---------------- point location ---------------- *)

let node_of_cube t (ndepth, corner) =
  let s = find_cube t ndepth corner in
  if s < 0 then None else Some (handle t s)

(* Descend from slot [start], whose cube contains [g], calling [visit] on
   every slot entered; returns the located slot and how the query sits
   there. *)
let rec descend_from t g visit v =
  visit v;
  let d = depth_at t v in
  if d = bits then (v, At_point)
  else
    let q = quadrant ~ndepth:d g in
    let c = child_in t v q in
    if c < 0 then (v, Empty_quadrant q)
    else if slot_contains t c g then descend_from t g visit c
    else (v, Outside_child q)

let descend t start g ~visit =
  assert (slot_contains t start g);
  descend_from t g visit start

let locate_grid t start g f =
  let rev_path = ref [] in
  let v, slot = descend t start g ~visit:(fun s -> rev_path := f s :: !rev_path) in
  ({ node = handle t v; slot }, List.rev !rev_path)

let locate_from t start p = locate_grid t start.ix (Point.to_grid p) (handle t)
let locate t p = locate_grid t 0 (Point.to_grid p) (handle t)
let locate_ids t p = locate_grid t 0 (Point.to_grid p) (fun s -> t.ids.(s))

(* One walk by q's grid point: the cube, if stored and containing q, is
   on q's root path, so the walk meets it and reports ids from there. *)
let locate_from_cube t (ndepth, corner) p =
  let g = Point.to_grid p in
  if not (valid_cube t ndepth corner && Array.length g = t.tdim) then None
  else
    let s = walk t ndepth g 0 in
    if s >= 0 && slot_is_cube t s ndepth corner && slot_contains t s g then
      Some (locate_grid t s g (fun s -> t.ids.(s)))
    else None

let rec tree_depth t s = fold_children t s (fun acc c -> max acc (1 + tree_depth t c)) 0

let depth t = tree_depth t 0

(* ---------------- updates ---------------- *)

(* Insert grid point [g] below slot [v], whose cube contains it, in the
   one walk down its root path: on the way back up, every node the walk
   passed gains the point, unless it was already stored. *)
let rec insert_below t g v =
  let d = depth_at t v in
  if d = bits then false
  else begin
    let q = quadrant ~ndepth:d g in
    let c = child_in t v q in
    let added =
      if c < 0 then begin
        attach_child t v q (fresh_node t ~depth:bits ~size:1 g);
        true
      end
      else if slot_contains t c g then insert_below t g c
      else begin
        (* New internal node: smallest cube containing both g and c's cube. *)
        let k =
          let d = ref (depth_at t c) in
          for i = 0 to t.tdim - 1 do
            let common = bits - bitlen (g.(i) lxor coord t c i) in
            if common < !d then d := common
          done;
          !d
        in
        assert (k > d && k < depth_at t c);
        let w = fresh_node t ~depth:k ~size:(size_at t c + 1) g in
        let leaf = fresh_node t ~depth:bits ~size:1 g in
        replace_child t v q w;
        attach_child t w (quadrant ~ndepth:k (corner_of t c)) c;
        attach_child t w (quadrant ~ndepth:k g) leaf;
        true
      end
    in
    if added then add_size t v 1;
    added
  end

let insert t p =
  let g = Point.to_grid p in
  if Point.dim p <> t.tdim then invalid_arg "Cqtree.insert: dimension mismatch";
  let added = insert_below t g 0 in
  if added then t.npoints <- t.npoints + 1;
  added

(* Remove grid point [g] from below slot [v] (child of [gp], -1 at the
   root) in one walk down its root path, by quadrant as {!walk} goes. At
   g's leaf's parent, unlink the leaf and splice the parent out if it
   became a chain node (single child, not the root); on the way back up,
   every node the walk passed loses the point, unless it was absent. *)
let rec remove_below t g gp v =
  let c = child_in t v (quadrant ~ndepth:(depth_at t v) g) in
  if c < 0 then false
  else if depth_at t c < bits then begin
    let removed = remove_below t g v c in
    if removed then add_size t v (-1);
    removed
  end
  else if not (slot_is_cube t c bits g) then false
  else begin
    add_size t v (-1);
    detach_child t v (quad_at t c);
    drop_node t c;
    let only = first_child t v in
    if gp >= 0 && only >= 0 && next_sibling t only < 0 then begin
      replace_child t gp (quad_at t v) only;
      drop_node t v
    end;
    true
  end

let remove t p =
  if Point.dim p <> t.tdim then invalid_arg "Cqtree.remove: dimension mismatch";
  let removed = remove_below t (Point.to_grid p) (-1) 0 in
  if removed then t.npoints <- t.npoints - 1;
  removed

(* Run one update with node-churn logging on, returning the ids of the
   nodes it created and destroyed (the O(1) range delta of §4). *)
let with_delta t op =
  t.logging <- true;
  t.added_log <- [];
  t.removed_log <- [];
  let changed = op () in
  t.logging <- false;
  let delta = (t.added_log, t.removed_log) in
  t.added_log <- [];
  t.removed_log <- [];
  (changed, delta)

let insert_delta t p =
  let changed, (added, removed) = with_delta t (fun () -> insert t p) in
  (changed, added, removed)

let remove_delta t p =
  let changed, (added, removed) = with_delta t (fun () -> remove t p) in
  (changed, added, removed)

(* ---------------- traversals and oracles ---------------- *)

let rec iter_preorder t s f =
  f s;
  iter_children t s (fun c -> iter_preorder t c f)

let iter_nodes t ~f = iter_preorder t 0 (fun s -> f (handle t s))

let iter_ids t ~f =
  for s = 0 to t.used - 1 do
    if t.meta.(s) >= 0 then f t.ids.(s)
  done

let node_children_cubes n =
  let t = n.tree in
  List.rev (fold_children t n.ix (fun acc c -> (depth_at t c, corner_of t c) :: acc) [])

(* Count stored points lying inside an arbitrary aligned cube. *)
let count_in_cube t cube =
  let rec go s =
    let own = (depth_at t s, corner_of t s) in
    if cube_subset ~outer:cube ~inner:own then size_at t s
    else if
      (* The query cube could be strictly inside s's cube. *)
      cube_subset ~outer:own ~inner:cube
    then fold_children t s (fun acc c -> acc + go c) 0
    else 0
  in
  go 0

let points_in_located_gap t ~location_cube ~child_cubes =
  let inside = count_in_cube t location_cube in
  let covered =
    List.fold_left
      (fun acc cube ->
        if cube_subset ~outer:location_cube ~inner:cube then acc + count_in_cube t cube
        else acc)
      0 child_cubes
  in
  inside - covered

(* Squared distance from q to slot [s]'s cube, in unit coordinates. *)
let cube_dist_sq t s (q : Point.t) =
  let side = float_of_int (1 lsl (bits - depth_at t s)) /. float_of_int Point.grid_size in
  let acc = ref 0.0 in
  for i = 0 to t.tdim - 1 do
    let lo = float_of_int (coord t s i) /. float_of_int Point.grid_size in
    let hi = lo +. side in
    let d = if q.(i) < lo then lo -. q.(i) else if q.(i) > hi then q.(i) -. hi else 0.0 in
    acc := !acc +. (d *. d)
  done;
  !acc

module Frontier = struct
  (* A binary min-heap of slots keyed by a float priority, in parallel
     arrays. *)
  type heap = { mutable prio : float array; mutable slots : int array; mutable len : int }

  let create () = { prio = Array.make 16 0.0; slots = Array.make 16 0; len = 0 }

  let swap h i j =
    let p = h.prio.(i) and s = h.slots.(i) in
    h.prio.(i) <- h.prio.(j);
    h.slots.(i) <- h.slots.(j);
    h.prio.(j) <- p;
    h.slots.(j) <- s

  let push h p s =
    if h.len = Array.length h.prio then begin
      let prio = Array.make (2 * h.len) 0.0 and slots = Array.make (2 * h.len) 0 in
      Array.blit h.prio 0 prio 0 h.len;
      Array.blit h.slots 0 slots 0 h.len;
      h.prio <- prio;
      h.slots <- slots
    end;
    h.prio.(h.len) <- p;
    h.slots.(h.len) <- s;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.prio.((!i - 1) / 2) > h.prio.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Drop the minimum; read it first from [prio.(0)] and [slots.(0)]. *)
  let pop h =
    h.len <- h.len - 1;
    h.prio.(0) <- h.prio.(h.len);
    h.slots.(0) <- h.slots.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && h.prio.(l) < h.prio.(!smallest) then smallest := l;
      if r < h.len && h.prio.(r) < h.prio.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done
end

let nearest t q =
  if t.npoints = 0 then None
  else begin
    let heap = Frontier.create () in
    Frontier.push heap 0.0 0;
    let best = ref None in
    let best_d = ref infinity in
    while heap.len > 0 && heap.prio.(0) < !best_d do
      let s = heap.slots.(0) in
      Frontier.pop heap;
      (match leaf_point t s with
      | Some p ->
          let d = Point.dist_sq p q in
          if d < !best_d then begin
            best_d := d;
            best := Some p
          end
      | None -> ());
      iter_children t s (fun c ->
          let bound = cube_dist_sq t c q in
          if bound < !best_d then Frontier.push heap bound c)
    done;
    match !best with None -> None | Some p -> Some (p, sqrt !best_d)
  end

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let live s = t.meta.(s) >= 0 in
  (* The packing: links decode to live slots below [used], free slots
     carry the marker and chain through the sibling half only, corner
     words hold nothing above their coordinates. *)
  let nmarked = ref 0 and cw = cwords_of t.tdim in
  for s = 0 to t.used - 1 do
    if t.meta.(s) = -1 then begin
      incr nmarked;
      if first_child t s <> -1 then fail "Cqtree: free slot %d has a first child" s
    end
    else if t.meta.(s) < 0 then fail "Cqtree: slot %d has a negative size" s
    else begin
      List.iter
        (fun (what, c) ->
          if c < -1 || c >= t.used || (c >= 0 && not (live c)) then
            fail "Cqtree: slot %d's %s decodes to %d, not a live slot below %d" s what c t.used)
        [ ("first child", first_child t s); ("next sibling", next_sibling t s) ];
      for w = 0 to cw - 1 do
        let word = t.corners.((s * cw) + w) in
        let width = if (2 * w) + 1 < t.tdim then 2 * bits else bits in
        if word lsr width <> 0 then fail "Cqtree: slot %d's corner word %d has stray high bits" s w
      done
    end
  done;
  if not (live 0) then fail "Cqtree: the root slot is free";
  let reached = ref 0 in
  let rec go s =
    incr reached;
    let depth = depth_at t s in
    if not (live s) then fail "Cqtree: free slot %d linked into the tree" s;
    (* Corner alignment. *)
    let shift = bits - depth in
    Array.iter
      (fun c -> if (c lsr shift) lsl shift <> c then fail "Cqtree: corner not aligned")
      (corner_of t s);
    if find_cube t depth (corner_of t s) <> s then fail "Cqtree: node %d not found by the walk to its cube" s;
    if depth = bits then begin
      if first_child t s >= 0 then fail "Cqtree: leaf with children";
      if size_at t s <> 1 then fail "Cqtree: leaf size <> 1"
    end
    else begin
      let nchildren = fold_children t s (fun acc _ -> acc + 1) 0 in
      if s <> 0 && nchildren < 2 then
        fail "Cqtree: internal non-root node with < 2 children (not compressed)";
      let child_sum = fold_children t s (fun acc c -> acc + size_at t c) 0 in
      if size_at t s <> child_sum then fail "Cqtree: size %d <> child sum %d" (size_at t s) child_sum
    end;
    iter_children t s (fun c ->
        let q = quad_at t c in
        if depth_at t c <= depth then fail "Cqtree: child not deeper than parent";
        if not (slot_contains t s (corner_of t c)) then
          fail "Cqtree: child cube outside parent";
        if quadrant ~ndepth:depth (corner_of t c) <> q then fail "Cqtree: child in wrong quadrant";
        if child_in t s q <> c then fail "Cqtree: two children in quadrant %d" q;
        go c)
  in
  go 0;
  if size_at t 0 <> t.npoints then fail "Cqtree: root size out of sync";
  if !reached <> t.nnodes then fail "Cqtree: %d reachable nodes, %d counted" !reached t.nnodes;
  let nfree = ref 0 and f = ref t.free in
  while !f >= 0 do
    if !f >= t.used || live !f then fail "Cqtree: slot %d on the free list is not free" !f;
    incr nfree;
    if !nfree > !nmarked then fail "Cqtree: the free list does not end";
    f := next_sibling t !f
  done;
  if !nfree <> !nmarked then fail "Cqtree: %d free slots, %d on the free list" !nmarked !nfree;
  if t.nnodes + !nfree <> t.used then fail "Cqtree: slots leaked"

(* Axis-aligned box queries over the compressed tree: prune on cube/box
   disjointness, take whole subtrees on containment. *)
let box_of_points lo hi =
  let glo = Point.to_grid lo and ghi = Point.to_grid hi in
  Array.iteri (fun i g -> if g > ghi.(i) then invalid_arg "Cqtree: empty box") glo;
  (glo, ghi)

(* 0 = disjoint, 1 = cube inside box, 2 = partial overlap *)
let cube_box_relation t s (glo, ghi) =
  let side = 1 lsl (bits - depth_at t s) in
  let disjoint = ref false and inside = ref true in
  for i = 0 to t.tdim - 1 do
    let clo = coord t s i in
    let chi = clo + side - 1 in
    if chi < glo.(i) || clo > ghi.(i) then disjoint := true;
    if clo < glo.(i) || chi > ghi.(i) then inside := false
  done;
  if !disjoint then 0 else if !inside then 1 else 2

(* A leaf cube is a single cell, so it is either inside the box or
   disjoint from it: only internal nodes overlap partially. *)
let range_fold t ~lo ~hi ~init ~subtree =
  let box = box_of_points lo hi in
  let rec go s acc =
    match cube_box_relation t s box with
    | 0 -> acc
    | 1 -> subtree acc s
    | _ -> fold_children t s (fun acc c -> go c acc) acc
  in
  go 0 init

let range_count t ~lo ~hi = range_fold t ~lo ~hi ~init:0 ~subtree:(fun acc s -> acc + size_at t s)

let range_report t ~lo ~hi =
  let collect acc s =
    let pts = ref acc in
    iter_preorder t s (fun m -> match leaf_point t m with Some p -> pts := p :: !pts | None -> ());
    !pts
  in
  List.rev (range_fold t ~lo ~hi ~init:[] ~subtree:collect)

(* ---------------- charged query surfaces ----------------

   Like {!range_count}/{!nearest}, but additionally reporting the ids of
   every node the walk actually descends into — the ranges a distributed
   execution would fetch, which the hierarchy turns into per-host message
   charges. Both walks are deterministic (child lists and heap contents
   depend only on the structure), so the visit sequence is identical for
   any jobs count. *)

let range_scan t ~lo ~hi ~limit =
  if limit < 0 then invalid_arg "Cqtree.range_scan: limit >= 0";
  let box = box_of_points lo hi in
  let rev_visited = ref [] in
  let count = ref 0 in
  let rev_sample = ref [] in
  let taken = ref 0 in
  let visit s = rev_visited := t.ids.(s) :: !rev_visited in
  let take s =
    incr count;
    if !taken < limit then begin
      rev_sample := Point.of_grid (corner_of t s) :: !rev_sample;
      incr taken
    end
  in
  (* A fully-contained subtree is counted from its size field without
     walking — unless the sample still needs points, in which case the
     collection walk's nodes are charged like any other visit. *)
  let rec collect s =
    if depth_at t s = bits then take s;
    iter_children t s (fun c ->
        if !taken < limit then begin
          visit c;
          collect c
        end
        else count := !count + size_at t c)
  in
  let rec go s =
    match cube_box_relation t s box with
    | 0 -> ()
    | 1 ->
        visit s;
        if !taken < limit then collect s else count := !count + size_at t s
    | _ ->
        visit s;
        iter_children t s go
  in
  go 0;
  (!count, List.rev !rev_sample, List.rev !rev_visited)

let knn t q ~k =
  if k <= 0 then invalid_arg "Cqtree.knn: k >= 1";
  let heap = Frontier.create () in
  Frontier.push heap 0.0 0;
  let rev_visited = ref [] in
  (* The k best so far in ascending (dist_sq, point) order — ties broken
     on the point so the result is a pure function of the stored set —
     in a sorted array of at most min(k, size) slots. *)
  let cap = min k t.npoints in
  let best_d = Array.make cap 0.0 and best_p = Array.make cap [||] in
  let nbest = ref 0 in
  let kth_bound () = if !nbest < k then infinity else best_d.(k - 1) in
  let before d p i = d < best_d.(i) || (d = best_d.(i) && compare p best_p.(i) < 0) in
  let offer d p =
    if !nbest < cap || before d p (cap - 1) then begin
      let i = ref (min !nbest (cap - 1)) in
      while !i > 0 && before d p (!i - 1) do
        best_d.(!i) <- best_d.(!i - 1);
        best_p.(!i) <- best_p.(!i - 1);
        decr i
      done;
      best_d.(!i) <- d;
      best_p.(!i) <- p;
      if !nbest < cap then incr nbest
    end
  in
  while heap.len > 0 && heap.prio.(0) < kth_bound () do
    let s = heap.slots.(0) in
    Frontier.pop heap;
    rev_visited := t.ids.(s) :: !rev_visited;
    (match leaf_point t s with Some p -> offer (Point.dist_sq p q) p | None -> ());
    iter_children t s (fun c ->
        let b = cube_dist_sq t c q in
        if b < kth_bound () then Frontier.push heap b c)
  done;
  (List.init !nbest (fun i -> (best_p.(i), sqrt best_d.(i))), List.rev !rev_visited)
