(** Compressed quadtrees and octrees for point sets in R^d (§3.1).

    The tree is defined over the aligned hypercube hierarchy of the unit
    cube: a cube at depth [k] has side [2^-k]; its [2^d] children halve the
    side. The root is always the unit cube. Internal nodes are the
    {e interesting} cubes — minimal enclosing aligned cubes of subsets that
    occupy at least two child quadrants; chains of uninteresting cubes are
    compressed into single links. Leaves sit at the maximum grid depth and
    hold exactly one point. The tree has O(n) nodes but may have Θ(n)
    depth — which is why the skip-web hierarchy on top of it matters.

    As a range-determined link structure: the range of a node is its cube,
    the range of a link is the cube of its child endpoint (§3.1).

    Coordinates are handled exactly: points are snapped to a 2^30 grid
    (see {!Skipweb_geom.Point.to_grid}), and all cube computations are
    bit manipulations on integers.

    {b Layout.} A tree is a struct-of-arrays arena: node [s] is slot [s]
    of five int columns (id, subtree size, first child, next sibling,
    and the cube depth packed with the node's quadrant in its parent)
    plus [dim] ints of a flat corner array. A node is a leaf exactly
    when its depth is the grid depth. Children form a sibling list.
    There is no cube index and no parent column, so a 2-d tree costs
    about seven words per node. A cube is found by a walk from the
    root: the nodes whose cubes contain a grid point form one root path,
    each step takes the child in the point's quadrant, and each child is
    strictly deeper than its parent, so the walk takes at most
    [Point.grid_bits] + 1 = 31 steps in any dimension.

    {b Ids and slots.} A bulk build writes its nodes in preorder, so
    right after {!of_sorted} a node's id is its slot. Updates draw ids
    from a monotone counter (never reused) and recycle freed slots
    through a free list, so the arena follows the live node count under
    churn. Ids, child order and every answer are pure functions of the
    build input and the update sequence. *)

type t

type node
(** A handle on one node of a tree: valid until the tree's next
    {!insert} or {!remove}, which may free and reuse its slot. *)

(** Where a point-location query terminates. *)
type slot =
  | At_point  (** the query coincides with the leaf's point *)
  | Empty_quadrant of int  (** quadrant [i] of the node has no child *)
  | Outside_child of int
      (** quadrant [i] has a (compressed) child cube that does not contain
          the query *)

type location = { node : node; slot : slot }

val of_sorted : ?pool:Skipweb_util.Pool.t -> dim:int -> Skipweb_geom.Point.t array -> t
(** Single-pass bulk build: z-order-presort the points (a no-op when they
    already arrive z-sorted and distinct), shard by root quadrant, build
    each shard's compressed subtree in one left-to-right pass over its
    slice. Each shard is first counted exactly, then written into its
    own preorder range of slots — both passes fanned over [pool]'s
    domains when one is given — so the arena is allocated once at its
    final size. The resulting tree (node set, ids, child order, slots) is
    a pure function of the distinct grid-point set: bit-identical for any
    jobs count and for any input permutation. [dim >= 1]; every point
    must have dimension [dim]. *)

val build : dim:int -> Skipweb_geom.Point.t array -> t
(** Alias for {!of_sorted} — the bulk path {e is} the build path.
    Duplicate grid points are ignored beyond the first occurrence. *)

val dim : t -> int
val size : t -> int
(** Number of stored (distinct) points. *)

val node_count : t -> int
(** Total nodes including root and leaves: the structure's storage units. *)

val depth : t -> int
(** Length of the longest root-to-leaf path in {e tree edges} (compressed
    links count as one). *)

(** {1 Nodes} *)

val node_id : node -> int
(** Dense-ish stable identifier (creation order), for host placement. *)

val node_cube : node -> int * int array
(** [(depth, corner)] of the node's cube in grid coordinates. *)

val node_point : node -> Skipweb_geom.Point.t option
(** The stored point, for leaves. *)

val subtree_size : node -> int
(** Number of points under the node. *)

val root : t -> node

(** {1 Queries} *)

val locate : t -> Skipweb_geom.Point.t -> location * node list
(** Full point location from the root: the smallest node region containing
    the query, together with the descent path (for message accounting). *)

val locate_from : t -> node -> Skipweb_geom.Point.t -> location * node list
(** Point location starting at an internal node whose cube contains the
    query — the refine step of the skip-web hierarchy. *)

val locate_ids : t -> Skipweb_geom.Point.t -> location * int list
(** {!locate} reporting the descent path as node ids: the hierarchy's
    query path, which never builds a handle per step. *)

val locate_from_cube : t -> int * int array -> Skipweb_geom.Point.t -> (location * int list) option
(** [locate_from_cube t cube q]: {!locate_from} the node with exactly
    this cube, path as node ids. One walk from the root by [q]'s grid
    point passes the cube's node if it is stored and contains [q], and
    reports ids from there on. [None] if no node has the cube, if the
    cube does not contain [q], or if either has a dimension other than
    the tree's. The refine step of the skip-web hierarchy. *)

val node_of_cube : t -> int * int array -> node option
(** Find the node with exactly this cube, if present, by the walk from
    the root along the cube's corner: the walk stops at the first node
    at or below the cube's depth and compares that node's cube exactly.
    [None] for a cube of another dimension. Every node cube of a
    compressed quadtree over [T ⊆ S] is a node cube of the tree over [S],
    which is what makes skip-web refinement work. *)

val nearest : t -> Skipweb_geom.Point.t -> (Skipweb_geom.Point.t * float) option
(** Exact nearest neighbor by best-first search over cubes (a sequential
    utility for examples and test oracles; not part of the message-counted
    distributed path). *)

val points_in_located_gap : t -> location_cube:int * int array -> child_cubes:(int * int array) list -> int
(** [points_in_located_gap s ~location_cube ~child_cubes] counts the points
    of this tree that lie inside [location_cube] but in none of
    [child_cubes] — the "visible in the gap" quantity whose expectation
    Lemma 3 bounds by O(1) when the location comes from a random-half
    subtree. *)

(** {1 Updates} *)

val insert : t -> Skipweb_geom.Point.t -> bool
(** Adds a point; [false] if its grid cell is already occupied (the
    locate ends at that point's leaf). O(1) new nodes are created (one
    leaf, possibly one new internal node), after a locate. Raises
    [Invalid_argument] on a point of another dimension. *)

val remove : t -> Skipweb_geom.Point.t -> bool
(** Removes a point; [false] if its grid cell is empty. Splices out its
    parent if it becomes redundant; the parent, the grandparent and the
    subtree sizes to update come from the walk down the point's root
    path. Raises [Invalid_argument] on a point of another dimension, as
    {!insert} does. *)

val insert_delta : t -> Skipweb_geom.Point.t -> bool * int list * int list
(** Like {!insert}, additionally reporting [(changed, added, removed)]:
    the ids of the nodes the update created and destroyed. The skip-web
    hierarchy consumes the delta to adjust per-host memory charges in O(1)
    instead of re-enumerating {!iter_nodes}. *)

val remove_delta : t -> Skipweb_geom.Point.t -> bool * int list * int list
(** Like {!remove}, with the same delta report as {!insert_delta}. *)

val check_invariants : t -> unit
(** Validates: cube alignment, children within parent quadrants, interior
    nodes interesting (>= 2 children or the root), subtree sizes, leaf
    depth, every node found by the walk from its own cube, and the free
    list. Raises [Failure] on violation. *)

val iter_nodes : t -> f:(node -> unit) -> unit
(** Visit every node (root, internal, leaves) — used by the skip-web
    hierarchy for host placement and memory accounting. *)

val iter_ids : t -> f:(int -> unit) -> unit
(** The id of every node, in slot order (preorder right after a bulk
    build): host placement and memory accounting without handles. *)

val node_children_cubes : node -> (int * int array) list
(** Cubes of the node's (compressed) children — the regions already covered
    by finer ranges, used by the Lemma 3 gap measurement. *)

val range_count : t -> lo:Skipweb_geom.Point.t -> hi:Skipweb_geom.Point.t -> int
(** Number of stored points inside the axis-aligned closed box
    [\[lo, hi\]] — O(sqrt n + k)-flavored tree search (exact, used as the
    oracle for approximate range queries over the skip-web). *)

val range_report : t -> lo:Skipweb_geom.Point.t -> hi:Skipweb_geom.Point.t -> Skipweb_geom.Point.t list
(** The points themselves. *)

(** {1 Charged query surfaces}

    Like {!range_count}/{!nearest}, but additionally reporting the ids of
    every node the walk descends into — the ranges a distributed
    execution fetches, which the skip-web hierarchy turns into per-host
    message charges. Deterministic: the visit sequence is a pure function
    of the structure and the query. *)

val range_scan :
  t ->
  lo:Skipweb_geom.Point.t ->
  hi:Skipweb_geom.Point.t ->
  limit:int ->
  int * Skipweb_geom.Point.t list * int list
(** [range_scan t ~lo ~hi ~limit] counts the stored points in the closed
    box [\[lo, hi\]] and collects up to [limit] of them in traversal
    order: [(count, sample, visited_node_ids)]. Fully-contained subtrees
    are counted from their size fields without walking once the sample is
    full, so the visit list stays near the pruning frontier. *)

val knn :
  t ->
  Skipweb_geom.Point.t ->
  k:int ->
  (Skipweb_geom.Point.t * float) list * int list
(** [knn t q ~k] returns the [k] stored points nearest to [q] (fewer if
    the tree is smaller), ascending by distance with ties broken on the
    point, together with the ids of the nodes the best-first search
    expanded. [k >= 1]. *)
