(** The sorted doubly-linked list viewed as a range-determined link
    structure (§2.1 of the paper, running example; Lemma 1).

    A level set is represented as a sorted array of distinct integer keys.
    For an array [a] of size [m] the structure [D(a)] has [2m+1] ranges:

    - [Node i] — the singleton range [{a.(i)}], for [0 <= i < m];
    - [Link i] — the closed interval between consecutive elements
      [\[a.(i-1), a.(i)\]], for [0 <= i <= m], where [a.(-1) = -inf] and
      [a.(m) = +inf]. [Link 0] and [Link m] are the two unbounded end
      ranges; an empty set has the single universal range [Link 0].

    A node and a link are incident iff their ranges intersect, which
    recovers exactly the doubly-linked list.

    Ranges are also given a dense integer encoding — [Link i -> 2i],
    [Node i -> 2i+1] — under which the conflict list of any child range
    against a parent set is a {e contiguous} interval of codes. The
    improved 1-d blocking of §2.4.1 relies on this contiguity. *)

type range =
  | Node of int  (** [Node i] is the singleton [{a.(i)}]. *)
  | Link of int  (** [Link i] is the interval [\[a.(i-1), a.(i)\]]. *)

type bound =
  | Neg_inf
  | Key of int
  | Pos_inf

val num_ranges : int array -> int
(** [2m + 1] for an array of [m] keys. *)

val encode : range -> int
(** Dense code: [Link i -> 2i], [Node i -> 2i+1]. *)

val decode : int -> range
(** Inverse of {!encode}. *)

val valid : int array -> range -> bool
(** Whether the range exists in [D(a)]. *)

val span : int array -> range -> bound * bound
(** Lower and upper endpoints of a range. *)

val contains : int array -> range -> int -> bool
(** Whether key [q] lies in the (closed) range. *)

val locate : int array -> int -> range
(** The {e maximal} range of [D(a)] containing [q]: [Node i] if
    [q = a.(i)], otherwise the link between [q]'s neighbors. For the
    purposes of routing, a node is more specific than its incident links,
    so equality wins. *)

val locate_code : int array -> int -> int
(** [encode (locate a q)], without building the range: one binary search
    and no allocation, for routing loops that only need the code. *)

val conflict_interval : parent:int array -> child:int array -> range -> int * int
(** [conflict_interval ~parent ~child r] is the inclusive interval
    [(lo_code, hi_code)] of encoded parent ranges that conflict with
    (intersect) child range [r]. [child] must be a subset of [parent]
    (both sorted); [r] must be valid for [child]. *)

val conflicts : parent:int array -> child:int array -> range -> range list
(** The decoded conflict list, in encoding order. *)

val conflict_count : parent:int array -> child:int array -> range -> int

val intersection_size : parent:int array -> child:int array -> range -> int
(** [|Q ∩ S|] — how many parent keys lie inside a child range (the
    quantity bounded by 4 in expectation in Lemma 1's proof). The range
    must be valid for [child]. *)

val predecessor : int array -> int -> int option
val successor : int array -> int -> int option

val nearest : int array -> int -> int option
(** Nearest key by absolute distance; ties go to the predecessor. *)

val closest : int -> pred:int option -> succ:int option -> int option
(** [closest q ~pred ~succ] is whichever of [q]'s predecessor and
    successor lies nearer to [q], ties to the predecessor: the rule of
    {!nearest}, for callers that found the two neighbors themselves. *)

val range_keys : int array -> lo:int -> hi:int -> int list
(** Keys in the closed interval [\[lo, hi\]], ascending — the sequential
    answer to a 1-d range query. *)

val range_codes : int array -> lo:int -> hi:int -> int * int
(** Inclusive encoded-range interval a distributed range query walks:
    from the range containing [lo] to the range containing [hi]. *)
