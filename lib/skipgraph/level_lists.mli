(** Shared substrate for the skip graph family: a sorted key sequence whose
    elements carry membership vectors, partitioned at every level ℓ into
    lists of elements sharing an ℓ-bit vector prefix.

    The Table 1 randomized baselines (skip graphs, NoN skip graphs, and the
    bucket skip graph through its skip graph of separators) use this
    element/level discipline; this module owns the arrays and neighbor
    queries so each structure only implements its routing and cost
    accounting. *)

type t

val create : seed:int -> keys:int array -> t
(** Distinct keys (any order); elements are assigned stable ids 0.. in key
    order. *)

val size : t -> int
val key : t -> int -> int
(** Key of the element at sorted position [i]. *)

val id : t -> int -> int
(** Stable id of the element at sorted position [i] (used as its host). *)

val keys : t -> int array
(** The keys in sorted order, as a fresh copy. *)

val top_level : t -> int -> int
(** The deepest level at which position [i]'s prefix group still has at
    least two members — the element's tower height, i.e. the level a search
    from this element starts at. *)

val levels : t -> int
(** Levels in use across the structure. *)

val right_neighbor : t -> int -> int -> int option
(** [right_neighbor t i l]: nearest position [j > i] sharing an [l]-bit
    prefix with [i], or [None]. *)

val left_neighbor : t -> int -> int -> int option

val common_prefix : t -> int -> int -> int
(** Of the elements at two positions. *)

val position : t -> int -> int
(** Sorted position a key occupies or would occupy. *)

val mem : t -> int -> bool

val next_id : t -> int
(** The fresh id the next {!splice_in} assigns. Ids are never reused. *)

val splice_in : t -> int -> int * int
(** [splice_in t k] inserts key [k] with a fresh id and links it in bottom
    up, walking each level-(L-1) list outward to its level-L neighbors.
    Returns its position and the messages of that walk: 2, plus 2 and one
    per element passed for each level above 0 it links at. Raises
    [Invalid_argument] on duplicates. *)

val splice_out : t -> int -> int
(** [splice_out t k] removes key [k], unlinking it from its top level
    down; returns its former position. *)

val predecessor : t -> int -> int option
val successor : t -> int -> int option

val check_invariants : t -> unit
(** Also checks the maintained heights and tables against a fresh sweep. *)
