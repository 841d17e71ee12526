(** Deterministic pseudo-random number generation for reproducible
    experiments.

    All randomized structures in this repository (skip lists, skip graphs,
    skip-webs, randomized incremental constructions) draw their coins from
    this module rather than from [Stdlib.Random], so that every experiment
    is reproducible from a single integer seed.

    The generator is SplitMix64 (Steele, Lea, Flood 2014): a tiny,
    high-quality 64-bit mixer that supports cheap splitting, which we use to
    derive independent streams per element, per level, and per trial. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    (for practical purposes) independent of the rest of [g]'s stream. *)

val stream : t -> int -> t
(** [stream g i] derives the [i]-th indexed substream of [g] {e without}
    advancing [g]: a pure function of ([g]'s current state, [i]), with
    distinct [i] giving (for practical purposes) independent streams.
    This is the per-worker derivation for parallel workloads: each unit
    of work [i] uses [stream g i], so the coins it sees depend only on
    the base seed and [i] — never on which domain ran it or in what
    order — making parallel runs bit-identical to sequential ones.
    Requires [i >= 0]. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** [bits g] is a non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** A fair coin. *)

val coin : t -> p:float -> bool
(** [coin g ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val hash2 : int -> int -> int
(** [hash2 a b] deterministically mixes two integers into a non-negative
    integer; used to derive per-element random bits from (seed, element id)
    without storing explicit bit vectors. *)

val hash3 : int -> int -> int -> int
(** Three-argument variant of {!hash2}. *)

type prefixes
(** A reusable table of [hash3] prefixes: the part of [hash3 a b c] that
    depends on [(a, b)] only, stored unboxed. A loop that hashes many [c]
    under the same few [(a, b)] stores each prefix once and finishes
    every hash against it, without allocating. *)

val prefixes : int -> prefixes
(** [prefixes n] is a table of [n] prefixes, indexed from 0. Read an
    index only after setting it. *)

val set_prefix : prefixes -> int -> int -> int -> unit
(** [set_prefix p i a b] stores the prefix of [(a, b)] at index [i].
    Allocates nothing. *)

val hash3_at : prefixes -> int -> int -> int
(** [hash3_at p i c] is [hash3 a b c] for the [(a, b)] last stored at
    index [i]. Allocates nothing. *)
