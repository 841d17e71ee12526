(** Non-vertical line segments in the plane and the predicates needed by
    trapezoidal maps (§3.3).

    Segments are given by two endpoints with [x0 < x1] (callers may pass
    endpoints in either order; the constructor normalizes). Trapezoidal
    maps require input segments to be pairwise non-crossing; segments may
    share endpoints. Predicates are evaluated in floating point — workloads
    generate segments on a coarse grid so that the predicates are exact. *)

type t = private { x0 : float; y0 : float; x1 : float; y1 : float; id : int }

val make : ?id:int -> float * float -> float * float -> t
(** [make (x0,y0) (x1,y1)] normalizes so [x0 < x1]. Raises
    [Invalid_argument] on vertical segments ([x0 = x1]). *)

val id : t -> int

val y_at : t -> float -> float
(** The segment's y at abscissa [x]; requires [x0 <= x <= x1]. *)

val crosses : t -> t -> bool
(** Proper interior crossing (shared endpoints do not count). Used to
    validate workloads for the trapezoidal map. *)

val endpoints : t -> (float * float) * (float * float)

val to_string : t -> string
