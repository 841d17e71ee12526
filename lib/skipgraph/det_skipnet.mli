(** Deterministic SkipNet (Harvey–Munro, PODC 2003) — Table 1 row 4,
    realized as a distributed 1-2-3 deterministic skip list (the structure
    their construction is built on).

    Every element lives on its own host and participates in levels
    1..height; the {e 1-2-3 invariant} — between two consecutive elements
    of the level-(h+1) list there are one, two or three level-h elements —
    guarantees worst-case O(log n) search with no randomness. Insertions
    restore the invariant bottom-up: a gap of four triggers a promotion of
    its middle element, possibly cascading upwards. Following the
    Harvey–Munro protocol, each promotion at level h is located by a fresh
    partial search from the top (hosts hold no parent pointers), which is
    what makes the worst-case update cost O(log² n) messages — the U column
    of Table 1. Deletions repair the invariant with B-tree-style borrows
    and merges (see {!delete}). *)

module Network = Skipweb_net.Network

type t

val create : net:Network.t -> keys:int array -> t
(** Deterministic bulk build satisfying the invariant (every second element
    promoted per level). *)

val size : t -> int
val height : t -> int

type search_result = Skip_graph.search_result

val search : t -> from:Network.host -> int -> search_result

val insert : t -> int -> int
(** Message cost: top-down locate + per-promotion partial searches. *)

val memory_per_host : t -> int list
val check_invariants : t -> unit
(** Verifies the 1-2-3 gap invariant at every level. *)

val delete : t -> int -> int
(** Remove a key, restoring the 1-2-3 invariant: merged gaps below the
    element's height are re-split by promotions; an emptied interior gap
    at its top level is repaired by B-tree-style borrows/merges through
    the adjacent parent key, cascading upwards. Message cost: a locate
    plus a partial search per structural step — O(log² n) worst case,
    matching the row's update bound. Raises [Invalid_argument] if
    absent. *)
