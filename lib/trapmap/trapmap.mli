(** Trapezoidal maps of non-crossing line segments in the plane (§3.3,
    Figure 4, Lemma 5).

    The map subdivides the unit square by the input segments plus vertical
    extensions shot up and down from every segment endpoint until they hit
    another segment or the bounding box. The decomposition is canonical
    (independent of insertion order); for [n] pairwise-disjoint segments
    with distinct endpoint x-coordinates it has exactly [3n + 1]
    trapezoids.

    Assumptions (checked by {!build}): segments are pairwise disjoint (no
    crossings, no shared endpoints) and all endpoint x-coordinates are
    distinct — the paper's setting of "disjoint line segments", in general
    position. Workload generators produce such sets.

    As a range-determined link structure: ranges are the (open) trapezoid
    regions; two trapezoids of different maps conflict iff their interiors
    intersect. Lemma 5: for [T ⊆ S] a random half and [t] a trapezoid of
    [D(T)], the number of trapezoids of [D(S)] conflicting with [t] is
    exactly [1 + a + 2b + 3c], where [a]/[b]/[c] count segments of [S]
    crossing [t] with 0/1/2 endpoints interior to [t]; its expectation is
    O(1). Both sides of that equality are computable here
    ({!conflicts}, {!conflict_formula}). *)

module Segment = Skipweb_geom.Segment

type t

type trap
(** A trapezoid: a top and bottom segment (or the bounding box) and a left
    and right abscissa. *)

val empty : unit -> t
(** The map of no segments: the bounding unit square as one trapezoid. *)

val build : Segment.t array -> t
(** The {!insert} loop from {!empty}, in array order. Raises
    [Invalid_argument] at the first segment that crosses or touches an
    earlier one, repeats an endpoint x-coordinate or leaves the unit
    square. *)

val insert : t -> Segment.t -> unit
(** Add one segment (same preconditions, checked against current
    content). Replaces the crossed trapezoids with their refinement. *)

val insert_delta : t -> Segment.t -> int list * int list
(** Like {!insert}, returning [(added, removed)] — the ids of the
    trapezoids the refinement created and destroyed. The skip-web
    hierarchy consumes the delta to adjust per-host memory charges in O(1)
    amortized instead of re-enumerating {!traps}. *)

val segment_count : t -> int
(** O(1): a counter that only an accepted insert moves. *)

val trap_count : t -> int
val traps : t -> trap list

(** {1 Trapezoids} *)

val trap_id : trap -> int
val trap_top : trap -> Segment.t option
(** [None] is the bounding box top. *)

val trap_bottom : trap -> Segment.t option
val trap_xspan : trap -> float * float

val trap_contains : trap -> float * float -> bool
(** Strict interior containment (queries in general position). *)

val trap_intersects : trap -> trap -> bool
(** Open-interior overlap — the conflict predicate, usable across maps. *)

val trap_area : trap -> float

(** {1 Queries} *)

val locate : t -> float * float -> trap
(** The trapezoid whose interior contains the point. Raises [Not_found]
    for points on the subdivision skeleton (measure zero for
    general-position queries). *)

val locate_opt : t -> float * float -> trap option

(** {1 Lemma 5 instrumentation} *)

val conflicts : t -> trap -> trap list
(** Trapezoids of this map whose interior meets the interior of a (foreign)
    trapezoid — the conflict list C(t, S) of §2.2. *)

val conflict_formula : segments:Segment.t array -> trap -> int * (int * int * int)
(** [(1 + a + 2b + 3c, (a, b, c))] per Lemma 5's proof, classifying each
    segment by how many of its endpoints are interior to the trapezoid
    (only segments meeting the interior count). *)

val check_invariants : t -> unit
(** Segment counter = segments stored, trapezoid count = 3n+1, areas sum
    to 1, interiors pairwise disjoint (O(T²); intended for test sizes),
    positive widths/heights. Raises
    [Failure] on violation. *)
