(** Synthetic workload generation for every experiment in EXPERIMENTS.md.

    The paper evaluates nothing empirically, so workloads are chosen to
    exercise the claims: uniform and clustered key sets for the Table 1
    sweeps, adversarially deep point/string sets for the Theorem 2
    "even if the underlying tree has depth O(n)" claims, and random
    non-crossing segment sets for trapezoidal maps. All generators are
    deterministic in their seed. *)

module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment

(** {1 One-dimensional keys} *)

val distinct_ints : seed:int -> n:int -> bound:int -> int array
(** [n] distinct integers drawn uniformly from [\[0, bound)], sorted
    ascending. Requires [bound >= 2 n]. *)

val clustered_ints : seed:int -> n:int -> clusters:int -> spread:int -> int array
(** Keys concentrated around [clusters] random centers with uniform offsets
    in [\[0, spread)]; duplicates removed, sorted; the result may be
    slightly shorter than [n]. *)

val query_mix : seed:int -> keys:int array -> n:int -> bound:int -> int array
(** Query points: half uniform over the domain, half perturbed copies of
    random stored keys (hitting the interesting dense areas). *)

(** {1 Points in the unit cube} *)

val uniform_points : seed:int -> n:int -> dim:int -> Point.t array

val clustered_points : seed:int -> n:int -> dim:int -> clusters:int -> radius:float -> Point.t array

val diagonal_points : n:int -> dim:int -> Point.t array
(** An adversarial set: point [i] at coordinate [2^-(i+1)] replicated in
    every dimension, forcing a compressed quadtree of depth Θ(n) — the
    input for which naive tree descent costs Θ(n) messages but skip-webs
    stay logarithmic. At most [Point.grid_bits - 1] points are meaningful;
    asking for more raises [Invalid_argument]. *)

val uniform_query_points : seed:int -> n:int -> dim:int -> Point.t array

(** {1 Strings over fixed alphabets} *)

val random_strings : seed:int -> n:int -> alphabet:int -> len:int -> string array
(** [n] distinct strings of length exactly [len] over the first [alphabet]
    lowercase letters (duplicates resolved by resampling). Requires
    [alphabet] in [\[1, 26\]] and [alphabet^len >= 2 n]. *)

val prefix_heavy_strings : seed:int -> n:int -> alphabet:int -> string array
(** An adversarial family: string [i] is the shared prefix [a^i] followed
    by one distinguishing letter and a short random tail — the trie has
    string depth Θ(n). *)

val isbn_strings : seed:int -> n:int -> publishers:int -> string array
(** ISBN-like identifiers ["978-P-NNNNNN"] with a skewed publisher
    distribution — the paper's book-database motivation. Distinct. *)

val string_queries : seed:int -> keys:string array -> n:int -> string array
(** Mix of stored strings, prefixes of stored strings, and fresh random
    strings. *)

(** {1 Non-crossing segment sets} *)

val disjoint_segments : seed:int -> n:int -> Segment.t array
(** [n] pairwise disjoint segments with distinct endpoint x-coordinates
    strictly inside the unit square, generated by rejection sampling with
    length scaled as [1/sqrt n] so acceptance stays high. *)

val trapmap_query_points : seed:int -> n:int -> (float * float) array
(** General-position query points in the unit square interior. *)

(** {1 Skewed queries} *)

val zipf_cdf : m:int -> s:float -> float array
(** The inverse-sampling CDF over popularity ranks 1..m that
    {!zipf_queries} draws against: entry [i] is P(rank <= i + 1), strictly
    increasing, with the last entry {e exactly} 1.0. Accumulating the [m]
    normalized weights in floating point can otherwise land the last entry
    a few ulps short of 1.0 — e.g. at large [m], or at an [s] steep enough
    that tail weights vanish against the head — and a uniform draw in that
    gap would walk the inverse-CDF search one past the last rank, indexing
    out of the key permutation. Exposed so the regression test can check
    the terminal-entry property directly (the gap is too small to hit
    reliably by sampling). Requires [m >= 1] and [s > 0]. *)

val zipf_queries : seed:int -> keys:int array -> n:int -> s:float -> int array
(** Queries targeting stored keys with a Zipf(s) popularity distribution —
    the skewed load for congestion experiments. Requires a non-empty key
    set and [s > 0]. Rank selection is clamped to the last rank, so every
    returned query is a stored key even for adversarial [(m, s)]. *)

type zipf
(** A prepared Zipf(s) sampler over a fixed key set: the rank CDF and the
    rank-to-key permutation are frozen at {!zipf_prepare}; each
    {!zipf_draw} then consumes exactly one float from the caller's rng.
    {!zipf_queries} is a loop of draws over a sampler prepared from its
    own seed, and the open-loop driver ({!Open_loop}) interleaves draws
    with its arrival and mix coins — both see the same popularity law. *)

val zipf_prepare : rng:Skipweb_util.Prng.t -> keys:int array -> s:float -> zipf
(** Shuffles the rank permutation from [rng] (the only rng consumption).
    Requires a non-empty key set and [s > 0]. *)

val zipf_draw : zipf -> Skipweb_util.Prng.t -> int
(** One Zipf-popular stored key; exactly one rng draw. *)

val mixed_queries :
  ?s:float -> seed:int -> keys:int array -> total:int -> bound:int -> unit -> int array
(** The hotspot query mix: even slots uniform over [\[0, bound)], odd
    slots Zipf([s], default 1.1)-popular stored keys — popularity skew on
    top of the structural skew the upper levels of a skip structure
    already create. An odd [total] is rounded up, so the result always
    has an even length. *)
