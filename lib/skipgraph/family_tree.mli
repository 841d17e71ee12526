(** Family trees (Zatloukal–Harvey, SODA 2004) — Table 1 row 3: an ordered
    peer-to-peer dictionary in which every host keeps only O(1) pointers
    yet searches take O(log n) expected messages.

    Simplification (documented in DESIGN.md §5): the full family-tree
    construction is replaced by a constant-degree randomized tree overlay —
    a treap keyed by the stored keys with i.i.d. random priorities. Every
    host stores its element plus three pointers (parent, left, right), so
    M = O(1) exactly as in the family-tree row; searches descend from the
    tree root (each host's designated root pointer) in O(log n) expected
    messages, and updates are a search plus O(1) expected rotations. These
    are precisely the M/Q/U shapes Table 1 reports for family trees, which
    is what the comparison benchmarks measure. *)

module Network = Skipweb_net.Network

type t

val create : net:Network.t -> seed:int -> keys:int array -> t
val size : t -> int

val depth : t -> int
(** Height of the overlay tree. *)

type search_result = Skip_graph.search_result

val search : t -> from:Network.host -> int -> search_result
(** Route a nearest-neighbor query from an arbitrary host: one message to
    the overlay root, then a root-to-leaf descent. *)

val insert : t -> int -> int
(** Message cost: descent + rotations. *)

val delete : t -> int -> int

val max_degree : t -> int
(** Maximum number of pointers any host stores — O(1), the row's point. *)

val memory_per_host : t -> int list
val check_invariants : t -> unit
