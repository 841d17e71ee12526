module Point = Skipweb_geom.Point
module Pool = Skipweb_util.Pool
module Presort = Skipweb_util.Presort

let bits = Point.grid_bits

type node = {
  mutable id : int;
      (* Mutable only for the bulk build's commit pass: workers allocate
         nodes with a placeholder id and one sequential commit assigns the
         real ids, so id order is a pure function of the point set, never
         of scheduling. *)
  ndepth : int;  (* cube depth: side = 2^(bits - ndepth) grid cells *)
  corner : int array;  (* aligned grid coordinates of the low corner *)
  mutable children : (int * node) list;  (* quadrant index -> child *)
  mutable npoint : int array option;  (* grid point; Some iff leaf *)
  mutable size : int;  (* points in the subtree *)
  mutable parent : node option;
}

type t = {
  tdim : int;
  root : node;
  cube_index : (int * int list, node) Hashtbl.t;
  mutable next_id : int;
  mutable npoints : int;
  mutable nnodes : int;
  (* Node churn log for the delta-reporting update API. *)
  mutable logging : bool;
  mutable added_log : int list;
  mutable removed_log : int list;
}

type slot = At_point | Empty_quadrant of int | Outside_child of int

type location = { node : node; slot : slot }

let dim t = t.tdim
let size t = t.npoints
let node_count t = t.nnodes
let root t = t.root
let node_id n = n.id
let node_cube n = (n.ndepth, n.corner)
let subtree_size n = n.size

let node_point n =
  match n.npoint with None -> None | Some g -> Some (Point.of_grid g)

let cube_key ndepth corner = (ndepth, Array.to_list corner)

let rec bitlen x = if x = 0 then 0 else 1 + bitlen (x lsr 1)

(* Does the cube (depth k, corner) contain grid point p? *)
let cube_contains ~ndepth ~corner p =
  let shift = bits - ndepth in
  let ok = ref true in
  for i = 0 to Array.length p - 1 do
    if p.(i) lsr shift <> corner.(i) lsr shift then ok := false
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

let fresh_node t ~ndepth ~corner ~npoint =
  let n =
    { id = t.next_id; ndepth; corner; children = []; npoint; size = 0; parent = None }
  in
  t.next_id <- t.next_id + 1;
  t.nnodes <- t.nnodes + 1;
  if t.logging then t.added_log <- n.id :: t.added_log;
  Hashtbl.replace t.cube_index (cube_key ndepth corner) n;
  n

let drop_node t n =
  Hashtbl.remove t.cube_index (cube_key n.ndepth n.corner);
  t.nnodes <- t.nnodes - 1;
  if t.logging then t.removed_log <- n.id :: t.removed_log

let attach_child parent quad child =
  assert (not (List.mem_assoc quad parent.children));
  parent.children <- (quad, child) :: parent.children;
  child.parent <- Some parent

let replace_child parent quad child =
  assert (List.mem_assoc quad parent.children);
  parent.children <- (quad, child) :: List.remove_assoc quad parent.children;
  child.parent <- Some parent

let detach_child parent quad =
  assert (List.mem_assoc quad parent.children);
  parent.children <- List.remove_assoc quad parent.children

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

(* Smallest aligned cube containing two distinct grid points. For a
   z-sorted slice this is the smallest cube containing the whole slice
   when applied to its first and last element: all points agree on every
   interleaved bit above the highest one on which any pair differs, and
   the slice's extremes differ exactly there. *)
let enclosing_of_pair dimension a b =
  let depth = ref bits in
  for i = 0 to dimension - 1 do
    let common = bits - bitlen (a.(i) lxor b.(i)) in
    if common < !depth then depth := common
  done;
  let k = !depth in
  let shift = bits - k in
  (k, Array.map (fun c -> (c lsr shift) lsl shift) a)

let placeholder_id = -1

let make_node ~ndepth ~corner ~npoint ~size =
  { id = placeholder_id; ndepth; corner; children = []; npoint; size; parent = None }

(* Single-pass subtree construction over the z-sorted distinct slice
   [gs.(lo .. hi - 1)]: no shared-state writes (placeholder ids, no index
   inserts), so disjoint slices build concurrently on pool workers.
   Quadrant groups are contiguous in the slice (see {!cmp_zorder}), so
   children split off by scanning group boundaries left to right. *)
let rec build_slice dimension gs lo hi =
  if hi - lo = 1 then make_node ~ndepth:bits ~corner:gs.(lo) ~npoint:(Some gs.(lo)) ~size:1
  else begin
    let k, corner = enclosing_of_pair dimension gs.(lo) gs.(hi - 1) in
    assert (k < bits);
    let node = make_node ~ndepth:k ~corner ~npoint:None ~size:(hi - lo) in
    let rev_children = ref [] in
    let i = ref lo in
    while !i < hi do
      let q = quadrant ~ndepth:k gs.(!i) in
      let j = ref (!i + 1) in
      while !j < hi && quadrant ~ndepth:k gs.(!j) = q do incr j done;
      let c = build_slice dimension gs !i !j in
      c.parent <- Some node;
      rev_children := (q, c) :: !rev_children;
      i := !j
    done;
    node.children <- List.rev !rev_children;
    node
  end

(* Assign real ids in a preorder DFS and publish the subtree into the
   shared cube index — the sequential commit pass. Preorder over the
   deterministic child lists makes the id assignment a pure function of
   the point set, identical for any jobs count. *)
let commit_subtree t node =
  let rec go n =
    n.id <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.nnodes <- t.nnodes + 1;
    if t.logging then t.added_log <- n.id :: t.added_log;
    Hashtbl.replace t.cube_index (cube_key n.ndepth n.corner) n;
    List.iter (fun (_, c) -> go c) n.children
  in
  go node

let of_sorted ?pool ~dim:dimension points =
  if dimension < 1 then invalid_arg "Cqtree.of_sorted: dim >= 1";
  Array.iter
    (fun p ->
      if Point.dim p <> dimension then invalid_arg "Cqtree.of_sorted: dimension mismatch")
    points;
  let gs = Array.map Point.to_grid points in
  (* Two keys with equal Morton codes are the same grid point, so the
     decorate/sort/strip round trip deduplicates exactly like the direct
     [cmp_zorder] presort and yields the same sequence. *)
  let gs =
    if dimension * bits <= 62 then
      Array.map snd
        (Presort.sorted_distinct ?pool
           ~cmp:(fun (a, _) (b, _) -> Int.compare a b)
           (Array.map (fun g -> (morton_key g, g)) gs))
    else Presort.sorted_distinct ?pool ~cmp:cmp_zorder gs
  in
  let n = Array.length gs in
  let t =
    {
      tdim = dimension;
      root =
        {
          id = 0;
          ndepth = 0;
          corner = Array.make dimension 0;
          children = [];
          npoint = None;
          size = n;
          parent = None;
        };
      cube_index = Hashtbl.create (max 64 (2 * n));
      next_id = 1;
      npoints = n;
      nnodes = 1;
      logging = false;
      added_log = [];
      removed_log = [];
    }
  in
  Hashtbl.replace t.cube_index (cube_key 0 t.root.corner) t.root;
  if n > 0 then begin
    (* The root's quadrant groups are the disjoint shards: each builds its
       own minimal-enclosing-cube subtree independently. *)
    let rev_groups = ref [] in
    let i = ref 0 in
    while !i < n do
      let q = quadrant ~ndepth:0 gs.(!i) in
      let j = ref (!i + 1) in
      while !j < n && quadrant ~ndepth:0 gs.(!j) = q do incr j done;
      rev_groups := (q, !i, !j) :: !rev_groups;
      i := !j
    done;
    let groups = Array.of_list (List.rev !rev_groups) in
    let ngroups = Array.length groups in
    let tops = Array.make ngroups t.root in
    let run gi =
      let _, lo, hi = groups.(gi) in
      tops.(gi) <- build_slice dimension gs lo hi
    in
    (match pool with
    | Some p when ngroups > 1 ->
        Pool.parallel_for_tasks p ~weights:(Array.map (fun (_, lo, hi) -> hi - lo) groups) run
    | _ ->
        for gi = 0 to ngroups - 1 do
          run gi
        done);
    (* Sequential merge/commit: attach the shard tops in ascending
       quadrant order (the z-sorted groups already are), then number the
       whole forest in one preorder pass. *)
    t.root.children <- Array.to_list (Array.mapi (fun gi (q, _, _) -> (q, tops.(gi))) groups);
    List.iter
      (fun (_, c) ->
        c.parent <- Some t.root;
        commit_subtree t c)
      t.root.children
  end;
  t

let build ~dim points = of_sorted ~dim points

let node_of_cube t (ndepth, corner) =
  Hashtbl.find_opt t.cube_index (cube_key ndepth corner)

let locate_grid_from _t start g =
  assert (cube_contains ~ndepth:start.ndepth ~corner:start.corner g);
  let rec desc v path =
    let path = v :: path in
    match v.npoint with
    | Some p ->
        (* A leaf cube is a single grid cell, so containment means equality. *)
        assert (p = g || v.ndepth < bits);
        if p = g then ({ node = v; slot = At_point }, List.rev path)
        else ({ node = v; slot = Empty_quadrant (quadrant ~ndepth:v.ndepth g) }, List.rev path)
    | None ->
        if v.ndepth >= bits then ({ node = v; slot = At_point }, List.rev path)
        else
          let q = quadrant ~ndepth:v.ndepth g in
          (match List.assoc_opt q v.children with
          | None -> ({ node = v; slot = Empty_quadrant q }, List.rev path)
          | Some c ->
              if cube_contains ~ndepth:c.ndepth ~corner:c.corner g then desc c path
              else ({ node = v; slot = Outside_child q }, List.rev path))
  in
  desc start []

let locate_from t start p = locate_grid_from t start (Point.to_grid p)

let locate t p = locate_from t t.root p

let rec tree_depth n =
  match n.children with
  | [] -> 0
  | cs -> 1 + List.fold_left (fun acc (_, c) -> max acc (tree_depth c)) 0 cs

let depth t = tree_depth t.root

let rec max_cube_depth_node n =
  let own = if n.npoint = None then n.ndepth else 0 in
  List.fold_left (fun acc (_, c) -> max acc (max_cube_depth_node c)) own n.children

let max_cube_depth t = max_cube_depth_node t.root

let insert t p =
  let g = Point.to_grid p in
  if Point.dim p <> t.tdim then invalid_arg "Cqtree.insert: dimension mismatch";
  if Hashtbl.mem t.cube_index (cube_key bits g) then false
  else begin
    let bump_sizes_from n =
      let rec go = function
        | None -> ()
        | Some v ->
            v.size <- v.size + 1;
            go v.parent
      in
      go (Some n)
    in
    let loc, _path = locate_grid_from t t.root g in
    let v = loc.node in
    (match loc.slot with
    | At_point -> assert false  (* duplicate handled above *)
    | Empty_quadrant q ->
        let leaf = fresh_node t ~ndepth:bits ~corner:g ~npoint:(Some g) in
        leaf.size <- 1;
        if v.npoint <> None then begin
          (* v is a leaf other than the root: impossible to have an empty
             quadrant slot below it unless v is the root-as-leaf; leaves
             are located via Outside_child of their parent. The only leaf
             that can be a location node is one whose cube properly
             contains g, which cannot happen at full depth. *)
          assert false
        end;
        attach_child v q leaf;
        bump_sizes_from v
    | Outside_child q ->
        let c = List.assoc q v.children in
        (* New internal node: smallest cube containing both g and c's cube. *)
        let k =
          let d = ref c.ndepth in
          for i = 0 to t.tdim - 1 do
            let common = bits - bitlen (g.(i) lxor c.corner.(i)) in
            if common < !d then d := common
          done;
          !d
        in
        assert (k > v.ndepth && k < c.ndepth);
        let shift = bits - k in
        let corner = Array.map (fun x -> (x lsr shift) lsl shift) g in
        let w = fresh_node t ~ndepth:k ~corner ~npoint:None in
        let leaf = fresh_node t ~ndepth:bits ~corner:g ~npoint:(Some g) in
        leaf.size <- 1;
        w.size <- c.size;
        replace_child v q w;
        attach_child w (quadrant ~ndepth:k c.corner) c;
        attach_child w (quadrant ~ndepth:k g) leaf;
        bump_sizes_from w);
    t.npoints <- t.npoints + 1;
    true
  end

let remove t p =
  let g = Point.to_grid p in
  match Hashtbl.find_opt t.cube_index (cube_key bits g) with
  | None -> false
  | Some leaf when leaf.npoint = None -> false
  | Some leaf ->
      let rec shrink_sizes = function
        | None -> ()
        | Some v ->
            v.size <- v.size - 1;
            shrink_sizes v.parent
      in
      (match leaf.parent with
      | None ->
          (* The leaf is the root-resident point: clear it. *)
          leaf.npoint <- None;
          leaf.size <- 0
      | Some v ->
          shrink_sizes (Some v);
          let q = quadrant ~ndepth:v.ndepth g in
          detach_child v q;
          drop_node t leaf;
          (* Splice v if it became a chain node (single child, internal,
             not the root). *)
          (match (v.children, v.parent, v.npoint) with
          | [ (_, only) ], Some grandparent, None ->
              let vq = quadrant ~ndepth:grandparent.ndepth v.corner in
              replace_child grandparent vq only;
              drop_node t v
          | _ -> ()));
      t.npoints <- t.npoints - 1;
      true

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

let iter_points t ~f =
  let rec go n =
    (match n.npoint with Some g -> f (Point.of_grid g) | None -> ());
    List.iter (fun (_, c) -> go c) n.children
  in
  go t.root

(* Count stored points lying inside an arbitrary aligned cube. *)
let count_in_cube t (ndepth, corner) =
  let rec go n =
    if cube_subset ~outer:(ndepth, corner) ~inner:(n.ndepth, n.corner) then n.size
    else if
      (* The query cube could be strictly inside n's cube. *)
      cube_subset ~outer:(n.ndepth, n.corner) ~inner:(ndepth, corner)
    then List.fold_left (fun acc (_, c) -> acc + go c) 0 n.children
    else 0
  in
  go t.root

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

(* Exact nearest neighbor: best-first search with cube distance bounds. *)
let cube_dist_sq t (ndepth, corner) (q : Point.t) =
  let side = float_of_int (1 lsl (bits - ndepth)) /. float_of_int Point.grid_size in
  let acc = ref 0.0 in
  for i = 0 to t.tdim - 1 do
    let lo = float_of_int corner.(i) /. float_of_int Point.grid_size in
    let hi = lo +. side in
    let d = if q.(i) < lo then lo -. q.(i) else if q.(i) > hi then q.(i) -. hi else 0.0 in
    acc := !acc +. (d *. d)
  done;
  !acc

module Frontier = struct
  (* A tiny binary min-heap of (priority, node). *)
  type elt = float * node

  type heap = { mutable data : elt array; mutable len : int }

  let create () = { data = Array.make 16 (0.0, Obj.magic 0); len = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h e =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) h.data.(0) in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let nearest t q =
  if t.npoints = 0 then None
  else begin
    let heap = Frontier.create () in
    Frontier.push heap (0.0, t.root);
    let best = ref None in
    let best_d = ref infinity in
    let rec loop () =
      match Frontier.pop heap with
      | None -> ()
      | Some (bound, _) when bound >= !best_d -> ()
      | Some (_, n) ->
          (match n.npoint with
          | Some g ->
              let p = Point.of_grid g in
              let d = Point.dist_sq p q in
              if d < !best_d then begin
                best_d := d;
                best := Some p
              end
          | None -> ());
          List.iter
            (fun (_, c) ->
              let bound = cube_dist_sq t (c.ndepth, c.corner) q in
              if bound < !best_d then Frontier.push heap (bound, c))
            n.children;
          loop ()
    in
    loop ();
    match !best with None -> None | Some p -> Some (p, sqrt !best_d)
  end

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    (* Corner alignment. *)
    let shift = bits - n.ndepth in
    Array.iter
      (fun c -> if (c lsr shift) lsl shift <> c then fail "Cqtree: corner not aligned")
      n.corner;
    (match n.npoint with
    | Some g ->
        if n.ndepth <> bits then fail "Cqtree: leaf not at full depth";
        if g <> n.corner then fail "Cqtree: leaf corner mismatch";
        if n.children <> [] then fail "Cqtree: leaf with children";
        if n.size <> 1 then fail "Cqtree: leaf size <> 1"
    | None ->
        if n.parent <> None && List.length n.children < 2 then
          fail "Cqtree: internal non-root node with < 2 children (not compressed)";
        let child_sum = List.fold_left (fun acc (_, c) -> acc + c.size) 0 n.children in
        if n.size <> child_sum then fail "Cqtree: size %d <> child sum %d" n.size child_sum);
    List.iter
      (fun (q, c) ->
        if c.ndepth <= n.ndepth then fail "Cqtree: child not deeper than parent";
        if not (cube_contains ~ndepth:n.ndepth ~corner:n.corner c.corner) then
          fail "Cqtree: child cube outside parent";
        if quadrant ~ndepth:n.ndepth c.corner <> q then fail "Cqtree: child in wrong quadrant";
        (match c.parent with
        | Some p when p == n -> ()
        | Some _ | None -> fail "Cqtree: broken parent pointer");
        go c)
      n.children
  in
  go t.root;
  if t.root.size <> t.npoints then fail "Cqtree: root size out of sync"

let iter_nodes t ~f =
  let rec go n =
    f n;
    List.iter (fun (_, c) -> go c) n.children
  in
  go t.root

let node_children_cubes n = List.map (fun (_, c) -> (c.ndepth, c.corner)) n.children

(* Axis-aligned box queries over the compressed tree: prune on cube/box
   disjointness, take whole subtrees on containment. *)
let box_of_points lo hi =
  let glo = Point.to_grid lo and ghi = Point.to_grid hi in
  Array.iteri (fun i g -> if g > ghi.(i) then invalid_arg "Cqtree: empty box") glo;
  (glo, ghi)

let cube_box_relation ~ndepth ~corner (glo, ghi) =
  (* 0 = disjoint, 1 = cube inside box, 2 = partial overlap *)
  let side = 1 lsl (bits - ndepth) in
  let disjoint = ref false and inside = ref true in
  Array.iteri
    (fun i c ->
      let clo = c and chi = c + side - 1 in
      if chi < glo.(i) || clo > ghi.(i) then disjoint := true;
      if clo < glo.(i) || chi > ghi.(i) then inside := false)
    corner;
  if !disjoint then 0 else if !inside then 1 else 2

let range_fold t ~lo ~hi ~init ~leaf ~subtree =
  let box = box_of_points lo hi in
  let rec go n acc =
    match cube_box_relation ~ndepth:n.ndepth ~corner:n.corner box with
    | 0 -> acc
    | 1 -> subtree acc n
    | _ -> (
        match n.npoint with
        | Some g ->
            let glo, ghi = box in
            let inside = ref true in
            Array.iteri (fun i c -> if c < glo.(i) || c > ghi.(i) then inside := false) g;
            if !inside then leaf acc g else acc
        | None -> List.fold_left (fun acc (_, c) -> go c acc) acc n.children)
  in
  go t.root init

let range_count t ~lo ~hi =
  range_fold t ~lo ~hi ~init:0 ~leaf:(fun acc _ -> acc + 1) ~subtree:(fun acc n -> acc + n.size)

let range_report t ~lo ~hi =
  let collect acc n =
    let pts = ref acc in
    let rec walk m =
      (match m.npoint with Some g -> pts := Point.of_grid g :: !pts | None -> ());
      List.iter (fun (_, c) -> walk c) m.children
    in
    walk n;
    !pts
  in
  List.rev
    (range_fold t ~lo ~hi ~init:[] ~leaf:(fun acc g -> Point.of_grid g :: acc) ~subtree:collect)

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
  let visit n = rev_visited := n.id :: !rev_visited in
  let take g =
    incr count;
    if !taken < limit then begin
      rev_sample := Point.of_grid g :: !rev_sample;
      incr taken
    end
  in
  (* A fully-contained subtree is counted from its size field without
     walking — unless the sample still needs points, in which case the
     collection walk's nodes are charged like any other visit. *)
  let rec collect n =
    (match n.npoint with Some g -> take g | None -> ());
    List.iter
      (fun (_, c) ->
        if !taken < limit then begin
          visit c;
          collect c
        end
        else count := !count + c.size)
      n.children
  in
  let rec go n =
    match cube_box_relation ~ndepth:n.ndepth ~corner:n.corner box with
    | 0 -> ()
    | 1 ->
        visit n;
        if !taken < limit then collect n else count := !count + n.size
    | _ ->
        visit n;
        (match n.npoint with
        | Some g ->
            let glo, ghi = box in
            let inside = ref true in
            Array.iteri (fun i c -> if c < glo.(i) || c > ghi.(i) then inside := false) g;
            if !inside then take g
        | None -> List.iter (fun (_, c) -> go c) n.children)
  in
  go t.root;
  (!count, List.rev !rev_sample, List.rev !rev_visited)

let knn t q ~k =
  if k <= 0 then invalid_arg "Cqtree.knn: k >= 1";
  let heap = Frontier.create () in
  Frontier.push heap (0.0, t.root);
  let rev_visited = ref [] in
  (* The k best, ascending (dist_sq, point); ties broken on the point so
     the result is a pure function of the stored set. *)
  let best = ref [] in
  let nbest = ref 0 in
  let kth_bound () =
    if !nbest < k then infinity
    else fst (List.nth !best (k - 1))
  in
  let offer d p =
    let rec ins = function
      | [] -> [ (d, p) ]
      | ((d', p') :: rest) as l ->
          if d < d' || (d = d' && compare p p' < 0) then (d, p) :: l else (d', p') :: ins rest
    in
    let rec take n = function
      | [] -> []
      | x :: r -> if n = 0 then [] else x :: take (n - 1) r
    in
    best := take k (ins !best);
    nbest := List.length !best
  in
  let rec loop () =
    match Frontier.pop heap with
    | None -> ()
    | Some (bound, _) when bound >= kth_bound () -> ()
    | Some (_, n) ->
        rev_visited := n.id :: !rev_visited;
        (match n.npoint with
        | Some g ->
            let p = Point.of_grid g in
            offer (Point.dist_sq p q) p
        | None -> ());
        List.iter
          (fun (_, c) ->
            let b = cube_dist_sq t (c.ndepth, c.corner) q in
            if b < kth_bound () then Frontier.push heap (b, c))
          n.children;
        loop ()
  in
  loop ();
  (List.map (fun (d, p) -> (p, sqrt d)) !best, List.rev !rev_visited)
