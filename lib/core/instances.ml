(** Instantiations of the skip-web framework (§3): one
    {!Range_structure.S} per range-determined link structure the paper
    treats — sorted lists (the running example of §2), compressed
    quadtrees/octrees (§3.1), compressed tries (§3.2) and trapezoidal maps
    (§3.3).

    The 1-d instance here uses the {e arbitrary} placement of §2.4 (query
    cost O(log n)); the improved blocked 1-d structure with
    O(log n / log log n) queries is {!Blocked1d}. Comparing the two is
    ablation A1.

    Every instance keeps all mutable state (range-id counters included)
    inside its [t] — no module-level globals — as the domain-confinement
    clause of {!Range_structure} requires: the parallel write path builds
    structures of different levels on different domains concurrently, and
    shared hidden state would both race and make range ids (hence host
    placement and memory charges) depend on scheduling. Each instance
    updates one key at a time; the hierarchy runs a batch as that
    per-key step repeated. *)

module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment
module L = Skipweb_linklist.Linklist
module O = Skipweb_util.Ordseq
module Presort = Skipweb_util.Presort
module Cqtree = Skipweb_quadtree.Cqtree
module Ctrie = Skipweb_trie.Ctrie
module Trapmap = Skipweb_trapmap.Trapmap

(** 1-d sorted sets: nearest-neighbor / predecessor / successor queries. *)
module Ints :
  Range_structure.S
    with type key = int
     and type query = int
     and type answer = int option
     and type descriptor = L.bound * L.bound
     and type scan = int * int
     and type scan_answer = int = struct
  type key = int
  type query = int
  type answer = int option

  (* Two shapes, chosen by size alone. A set of at most [flat_max] keys
     is flat: one exact-length sorted array held in [flat], searched by
     one binary search and replaced wholesale by every update. A larger
     set is a chunked sorted sequence in [seq]: O(log n) search and an
     O(√n)-bounded memmove per update, but about 50 words before its
     first key. Set-halving makes almost every level set tiny, so the
     flat shape is what keeps a 1-d hierarchy at a few words per key and
     level. An update that takes the size across [flat_max] switches the
     shape, in either direction, so the footprint depends only on the
     keys. Range codes are derived from ranks in both shapes: they are
     bitwise the codes of one sorted array, and the message model cannot
     tell the shapes apart. *)
  type t = { mutable flat : int array; mutable seq : O.t option }

  (* 32, not 16, by measurement at n = 5·10⁴ (EXPERIMENTS.md, "Flat
     small level sets"): it leaves 2 156 of the 92 369 level sets chunked
     instead of 4 503, for 66.8 live words per key instead of 70.0, and
     serve-1d's median query was about 5% faster. A single-key flat
     update copies at most 32 ints. *)
  let flat_max = 32

  (* One search's result: the rank, whether q is stored, and both stored
     neighbours — everything [describe], [answer] and the range code
     need, so the query path never reads a key back by position. *)
  type loc = O.hit

  (* The span of the located range: portable because child ranges map to
     parent ranges by interval intersection. *)
  type descriptor = L.bound * L.bound

  let name = "sorted-list"
  let visit_label = "list-walk"

  (* Holds the strictly increasing [a] in the shape its length calls
     for. A flat set keeps [a] itself. *)
  let set_keys t a =
    if Array.length a <= flat_max then begin
      t.flat <- a;
      t.seq <- None
    end
    else begin
      t.flat <- [||];
      t.seq <- Some (O.of_sorted_array a)
    end

  (* A chunked set that shrank to [flat_max] keys turns flat. *)
  let settle t s = if O.length s <= flat_max then set_keys t (O.to_array s)

  (* The presort may hand back the caller's own array, and a flat set
     keeps the array it is given, so build copies. *)
  let build keys =
    let t = { flat = [||]; seq = None } in
    set_keys t (Array.copy (Presort.sorted_distinct ~cmp:Int.compare keys));
    t

  let size t = match t.seq with None -> Array.length t.flat | Some s -> O.length s
  let storage_units t = (2 * size t) + 1

  let iter_range_ids t ~f =
    for id = 0 to 2 * size t do
      f id
    done

  (* The hit of q at its lower bound [r] in a flat set. *)
  let flat_hit a r q =
    let n = Array.length a in
    {
      O.rank = r;
      stored = r < n && a.(r) = q;
      pred = (if r > 0 then a.(r - 1) else min_int);
      succ = (if r < n then a.(r) else max_int);
    }

  let search t q =
    match t.seq with
    | Some s -> O.search s q
    | None -> flat_hit t.flat (O.array_lower_bound t.flat q) q

  (* The code of the maximal range containing q: Node at q's rank when
     stored ([L.encode (Node i)] = 2i + 1), else the link below its
     successor ([L.encode (Link i)] = 2i). *)
  let code (h : loc) = if h.O.stored then (2 * h.O.rank) + 1 else 2 * h.O.rank

  (* Range ids are the dense codes 0 .. 2m for m keys, so growing or
     shrinking the set by one key adds or drops exactly the top two
     codes — the O(1) delta the hierarchy charges incrementally. A flat
     set pays one search and one copy of its array. *)
  let insert t k =
    let n = size t in
    let fresh =
      match t.seq with
      | Some s -> O.insert s k
      | None ->
          let a = t.flat in
          let r = O.array_lower_bound a k in
          let fresh = r = n || a.(r) <> k in
          if fresh then begin
            let b = Array.make (n + 1) k in
            Array.blit a 0 b 0 r;
            Array.blit a r b (r + 1) (n - r);
            set_keys t b
          end;
          fresh
    in
    if fresh then { Range_structure.added = [ (2 * n) + 1; (2 * n) + 2 ]; removed = [] }
    else Range_structure.empty_delta

  let remove t k =
    let n = size t in
    let gone =
      match t.seq with
      | Some s ->
          let gone = O.remove s k in
          settle t s;
          gone
      | None ->
          let a = t.flat in
          let r = O.array_lower_bound a k in
          let gone = r < n && a.(r) = k in
          if gone then begin
            let b = Array.sub a 0 (n - 1) in
            Array.blit a (r + 1) b r (n - 1 - r);
            t.flat <- b
          end;
          gone
    in
    if gone then { Range_structure.added = []; removed = [ (2 * n) - 1; 2 * n ] }
    else Range_structure.empty_delta

  let probe k = k
  let order = Presort.order ~cmp:Int.compare

  (* A full locate walks the distributed list from its head — every range
     on the way is a hop. This is only used at the hierarchy's top level,
     where sets are O(1) in expectation (it is exactly why skewing the
     halving probability hurts: top sets grow, and so does this walk). *)
  let locate t q =
    let h = search t q in
    let code = code h in
    (h, List.init ((code / 2) + 1) (fun i -> 2 * i) @ [ code ])

  (* Refinement is conflict-guided: the hyperlinks of the child range name
     the O(1) candidate parent ranges, and the query hops straight to the
     containing one. *)
  let refine t ~from q =
    ignore from;
    let h = search t q in
    (h, [ code h ])

  (* Every level's search needs only q, so all of them run in lock-step
     through [O.lower_bounds]: first the flat sets and the chunk maxima
     of the chunked ones, then the chunks the maxima named. A descent
     reads every level set on its path, at about a miss per load; searched
     one level after another, each level's misses would wait for the
     level before. *)
  let refine_path sets top_loc q ~f =
    let m = Array.length sets - 1 in
    if m <= 0 then top_loc
    else begin
      let arrays = Array.make m [||] and lens = Array.make m 0 in
      let first = Array.make m 0 and second = Array.make m 0 in
      for l = 0 to m - 1 do
        let t = sets.(l) in
        match t.seq with
        | None ->
            arrays.(l) <- t.flat;
            lens.(l) <- Array.length t.flat
        | Some s ->
            arrays.(l) <- O.maxima s;
            lens.(l) <- O.chunk_count s
      done;
      O.lower_bounds arrays lens q first;
      for l = 0 to m - 1 do
        match sets.(l).seq with
        | Some s when first.(l) < O.chunk_count s ->
            arrays.(l) <- O.chunk s first.(l);
            lens.(l) <- O.chunk_length s first.(l)
        | _ -> lens.(l) <- 0
      done;
      O.lower_bounds arrays lens q second;
      let hits =
        Array.init m (fun l ->
            let t = sets.(l) in
            match t.seq with
            | None -> flat_hit t.flat first.(l) q
            | Some s -> O.hit_at s ~chunk:first.(l) ~offset:second.(l) q)
      in
      for l = m - 1 downto 0 do
        f l [ code hits.(l) ]
      done;
      hits.(0)
    end

  let describe t (h : loc) =
    if h.O.stored then (L.Key h.O.succ, L.Key h.O.succ)
    else
      let lo = if h.O.rank = 0 then L.Neg_inf else L.Key h.O.pred in
      let hi = if h.O.rank = size t then L.Pos_inf else L.Key h.O.succ in
      (lo, hi)

  let answer t (h : loc) q =
    let n = size t in
    if h.O.stored then Some h.O.succ
    else if n = 0 then None
    else if h.O.rank = 0 then Some h.O.succ
    else if h.O.rank = n then Some h.O.pred
    else if q - h.O.pred <= h.O.succ - q then Some h.O.pred
    else Some h.O.succ

  (* Closed-interval count [lo, hi]: the descent lands on the range
     containing [lo]; the scan then walks the list rightward, entering
     node [i] (code 2i+1) and the link after it (code 2i+2) for every
     stored key in the interval, and stops after peeking at the link past
     the last hit. The located range's own code is excluded — the
     hierarchy already charged the descent — and its rank is [lo]'s
     lower bound. *)
  type scan = int * int
  type scan_answer = int

  let scan_probe (lo, _hi) = lo

  let scan t (loc : loc) (lo, hi) =
    let lb = loc.O.rank in
    let ub =
      let h = search t hi in
      if h.O.stored then h.O.rank + 1 else h.O.rank
    in
    let count = if hi < lo then 0 else ub - lb in
    let visited =
      if count = 0 then []
      else
        (* codes 2*lb+1 .. 2*ub: nodes lb .. ub-1 with the links between
           and one past (the stop peek). *)
        List.init ((2 * ub) - (2 * lb)) (fun k -> (2 * lb) + 1 + k)
    in
    let self = code loc in
    (count, List.filter (fun c -> c <> self) visited)
end

(** Point location answer for quadtree/octree skip-webs. *)
type cell_answer = {
  cell_depth : int;  (** depth of the smallest node cube containing q *)
  cell_point : Point.t option;  (** the stored point if q hit a leaf cell *)
}

(** Multi-result queries over point sets: an axis-aligned box (count plus
    up to [limit] member points) or the [k] nearest neighbors of a
    center. *)
type point_scan =
  | Box of { lo : Point.t; hi : Point.t; limit : int }
  | Knn of { center : Point.t; k : int }

type point_scan_answer =
  | Box_hits of { count : int; sample : Point.t list }
  | Knn_hits of (Point.t * float) list  (** ascending distance *)

(** d-dimensional point sets via compressed quadtrees/octrees (§3.1). *)
module Points (D : sig
  val dim : int
end) :
  Range_structure.S
    with type t = Cqtree.t
     and type key = Point.t
     and type query = Point.t
     and type answer = cell_answer
     and type scan = point_scan
     and type scan_answer = point_scan_answer = struct
  type key = Point.t
  type query = Point.t
  type answer = cell_answer

  type t = Cqtree.t
  type loc = Cqtree.location
  type descriptor = int * int array  (* the located node's cube *)

  let name = Printf.sprintf "quadtree-%dd" D.dim
  let visit_label = "cube-walk"

  let build keys = Cqtree.build ~dim:D.dim keys

  let size = Cqtree.size
  let storage_units = Cqtree.node_count

  let iter_range_ids = Cqtree.iter_ids

  let insert t k =
    let _, added, removed = Cqtree.insert_delta t k in
    { Range_structure.added; removed }

  let remove t k =
    let _, added, removed = Cqtree.remove_delta t k in
    { Range_structure.added; removed }

  let probe k = k
  let order = Cqtree.zorder

  (* The descent's one dimension check: the top-level locate runs before
     the hierarchy opens a network session, so a wrong-dimension query,
     scan or insert bill is rejected having sent no message. *)
  let locate t q =
    if Point.dim q <> D.dim then invalid_arg "Instances.Points.locate: dimension mismatch";
    Cqtree.locate_ids t q

  (* Every cube of a subset's tree is a cube of this one (the subset-node
     property), so for a query of this dimension the lookup cannot miss. *)
  let refine t ~from q =
    match Cqtree.locate_from_cube t from q with
    | Some located -> located
    | None -> failwith "Instances.Points.refine: descriptor names no cube of this tree"

  let describe _t loc = Cqtree.node_cube loc.Cqtree.node
  let refine_path sets loc q ~f = Range_structure.sequential_refine_path ~describe ~refine sets loc q ~f

  let answer _t loc q =
    ignore q;
    let depth, _ = Cqtree.node_cube loc.Cqtree.node in
    { cell_depth = depth; cell_point = Cqtree.node_point loc.Cqtree.node }

  (* Box and k-NN walks are not confined to the located cell (the region
     spans cubes the descent never saw), so the scan re-enters the tree
     from its root and reports the full pruned walk; the descent's
     location only anchored the probe. *)
  type scan = point_scan
  type scan_answer = point_scan_answer

  let scan_probe = function Box { lo; _ } -> lo | Knn { center; _ } -> center

  let scan t _loc s =
    match s with
    | Box { lo; hi; limit } ->
        let count, sample, visited = Cqtree.range_scan t ~lo ~hi ~limit in
        (Box_hits { count; sample }, visited)
    | Knn { center; k } ->
        let hits, visited = Cqtree.knn t center ~k in
        (Knn_hits hits, visited)
end

module Points2d = Points (struct
  let dim = 2
end)

module Points3d = Points (struct
  let dim = 3
end)

(** Prefix-search answer for trie skip-webs. *)
type trie_answer = {
  lcp : string;  (** longest stored prefix of the query *)
  matches : int;  (** stored strings extending the query *)
}

(** Prefix enumeration: all stored strings extending [prefix], reporting
    the total and up to [scan_limit] of them lexicographically. *)
type trie_scan = { prefix : string; scan_limit : int }

type trie_scan_answer = { total : int; strings : string list }

(** Character strings over fixed alphabets via compressed tries (§3.2). *)
module Strings :
  Range_structure.S
    with type t = Ctrie.t
     and type key = string
     and type query = string
     and type answer = trie_answer
     and type scan = trie_scan
     and type scan_answer = trie_scan_answer = struct
  type key = string
  type query = string
  type answer = trie_answer

  type t = Ctrie.t
  type loc = Ctrie.location
  type descriptor = string  (* the located node's string *)

  let name = "trie"
  let visit_label = "trie-walk"

  let build = Ctrie.build

  let size = Ctrie.size
  let storage_units = Ctrie.node_count

  let iter_range_ids t ~f = Ctrie.iter_nodes t ~f:(fun n -> f (Ctrie.node_id n))

  let insert t k =
    let _, added, removed = Ctrie.insert_delta t k in
    { Range_structure.added; removed }

  let remove t k =
    let _, added, removed = Ctrie.remove_delta t k in
    { Range_structure.added; removed }

  let probe k = k
  let order = Presort.order ~cmp:String.compare

  let ids_of_path path = List.map Ctrie.node_id path

  let locate t q =
    let loc, path = Ctrie.locate t q in
    (loc, ids_of_path path)

  (* Every node string of a subset's trie is a node string of this one
     (the subset-node property), so the lookup cannot miss. *)
  let refine t ~from q =
    match Ctrie.node_of_string t from with
    | Some start ->
        let loc, path = Ctrie.locate_from t start q in
        (loc, ids_of_path path)
    | None -> failwith "Instances.Strings.refine: descriptor names no node of this trie"

  let describe _t loc = Ctrie.node_string loc.Ctrie.node
  let refine_path sets loc q ~f = Range_structure.sequential_refine_path ~describe ~refine sets loc q ~f

  let answer t _loc q = { lcp = Ctrie.longest_common_prefix t q; matches = Ctrie.count_with_prefix t q }

  (* The prefix subtree hangs exactly at the descent's location, so the
     scan consumes [loc] directly — no re-location — and only the
     enumeration walk below it is charged. *)
  type scan = trie_scan
  type scan_answer = trie_scan_answer

  let scan_probe s = s.prefix

  let scan t loc s =
    let total, strings, visited = Ctrie.prefix_scan t loc s.prefix ~limit:s.scan_limit in
    ({ total; strings }, visited)
end

(** Point-location answer for trapezoidal-map skip-webs. *)
type trap_answer = {
  above : int option;  (** id of the segment bounding the trapezoid above, if any *)
  below : int option;
  xspan : float * float;
}

(** Planar subdivisions by disjoint segments via trapezoidal maps (§3.3). *)
module Segments :
  Range_structure.S
    with type t = Trapmap.t
     and type key = Segment.t
     and type query = float * float
     and type answer = trap_answer
     and type scan = float * float
     and type scan_answer = trap_answer = struct
  type key = Segment.t
  type query = float * float
  type answer = trap_answer

  type t = Trapmap.t
  type loc = Trapmap.trap
  type descriptor = Trapmap.trap

  let name = "trapezoidal-map"
  let visit_label = "trap-walk"

  (* Array order: trapezoid ids — hence host placement — are those of
     the per-segment insert loop. *)
  let build = Trapmap.build

  let size = Trapmap.segment_count
  let storage_units = Trapmap.trap_count

  let iter_range_ids t ~f = List.iter (fun tr -> f (Trapmap.trap_id tr)) (Trapmap.traps t)

  let insert t k =
    let added, removed = Trapmap.insert_delta t k in
    { Range_structure.added; removed }

  let remove _t _k =
    failwith "Segments.remove: trapezoidal-map deletion is out of scope (paper §4 amortizes insertions only)"

  (* A point just above the segment's midpoint locates where the segment
     will land. *)
  let probe k =
    let (x0, _), (x1, _) = Segment.endpoints k in
    let xm = (x0 +. x1) /. 2.0 in
    (xm, Segment.y_at k xm +. 1e-9)

  (* The identity: a build numbers trapezoids in array order, so keys
     built in any other order would move every range, and a locate scans
     a list, so no query order walks faster. *)
  let order qs = Array.init (Array.length qs) Fun.id

  let locate t q =
    match Trapmap.locate_opt t q with
    | Some tr -> (tr, [ Trapmap.trap_id tr ])
    | None -> failwith "Segments.locate: query on the subdivision skeleton"

  let refine t ~from q =
    (* The conflict list of the child trapezoid contains the parent
       trapezoid holding q (Lemma 5); the hyperlink hop goes straight to
       it. *)
    match List.find_opt (fun tr -> Trapmap.trap_contains tr q) (Trapmap.conflicts t from) with
    | Some tr -> (tr, [ Trapmap.trap_id tr ])
    | None -> failwith "Instances.Segments.refine: no conflicting trapezoid contains the query"

  let describe _t loc = loc
  let refine_path sets loc q ~f = Range_structure.sequential_refine_path ~describe ~refine sets loc q ~f

  let answer _t loc _q =
    {
      above = Option.map Segment.id (Trapmap.trap_top loc);
      below = Option.map Segment.id (Trapmap.trap_bottom loc);
      xspan = Trapmap.trap_xspan loc;
    }

  (* Point location is already a "scan" of one trapezoid: the multi-result
     surface degenerates to reading the located range. *)
  type scan = float * float
  type scan_answer = trap_answer

  let scan_probe q = q
  let scan t loc q = (answer t loc q, [ Trapmap.trap_id loc ])
end
