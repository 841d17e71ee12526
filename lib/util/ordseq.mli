(** Chunked sorted-sequence engine: the host-local backing store for the
    larger level sets of the 1-d hierarchy ({!Skipweb_core.Instances.Ints}).

    A sequence of distinct integers is kept in sorted order across O(√n)
    chunks of O(√n) keys each, with a summary array of chunk maxima and a
    Fenwick (binary-indexed) prefix-count over chunk lengths. Searches
    ([lower_bound]/[search]) cost O(log n); an insert or remove memmoves
    at most one chunk — an O(√n) bound — with splits, merges and periodic
    re-chunking amortized. [of_sorted_array] bulk-loads in O(n).

    The container is purely host-local machinery: ranks, range codes and
    answers are bitwise what a flat sorted array gives, so the message
    model is untouched (the test suite pins seeded workload totals). *)

(** {1 Shared sorted-array searches}

    The one binary-search implementation the repo's modules share (the
    linked-list range algebra, the blocked 1-d cone projection, the
    skip-graph baselines and the chunks here all use it). [len] restricts
    the search to a prefix of the array — chunks are allocated beyond
    their live length. *)

val array_lower_bound : ?len:int -> int array -> int -> int
(** Index of the first element [>= k] (or [len]); the array's first [len]
    elements must be sorted ascending. *)

val lower_bounds : int array array -> int array -> int -> int array -> unit
(** [lower_bounds arrays lens k out] sets [out.(i)] to
    [array_lower_bound ~len:lens.(i) arrays.(i) k] for every [i], running
    the searches in lock-step: each round takes one halving step of every
    search still open. The searches do not depend on each other, so the
    loads of one round are in flight together instead of each search's
    chain of cache misses waiting for the one before. [lens.(i)] must lie
    in [0 .. Array.length arrays.(i)], and the three arrays must have one
    length; raises [Invalid_argument] otherwise. It keeps no state
    between calls, so any number of domains may call it at once. *)

val array_upper_index : ?len:int -> int array -> int -> int
(** Index of the last element [<= k], or [-1]. *)

val array_insert_at : int array -> int -> int -> int array
(** [array_insert_at a i v]: a fresh copy of [a] with [v] at index [i]
    (0 <= i <= length). The skip-graph baselines splice their key, id and
    height arrays with it and {!array_remove_at}. *)

val array_remove_at : int array -> int -> int array
(** [array_remove_at a i]: a fresh copy of [a] without index [i]. *)

(** {1 The chunked sorted sequence} *)

type t

val of_sorted_array : int array -> t
(** O(n) bulk load. The input must be strictly increasing; raises
    [Invalid_argument] otherwise. The array is copied. *)

val of_array : ?pool:Pool.t -> int array -> t
(** Sort and dedup through {!Presort.sorted_distinct}, then bulk load.
    The E15b scale bench and the [perf/] layer benchmarks call it;
    [Instances.Ints] builds its level sets through {!of_sorted_array}.
    [?pool] is passed on to the presort, so the result is identical for
    any job count. The input is never retained or modified. *)

val length : t -> int

val lower_bound : t -> int -> int
(** Rank of the first element [>= k] (= [length t] if none): the global
    index the flat-array [lower_bound] returned, in O(log n). *)

type hit = {
  rank : int;  (** stored elements [< k]: {!lower_bound} *)
  stored : bool;  (** [k] itself is stored (then [succ = k]) *)
  pred : int;  (** greatest stored element [< k]; meaningful when [rank > 0] *)
  succ : int;  (** least stored element [>= k]; meaningful when [rank < length] *)
}
(** Where a key falls: the 1-d range codes [2 * rank] (the link before
    [succ]) and [2 * rank + 1] (the node [k]) and both bounds of the
    range come straight from it. A missing neighbour reads [min_int] or
    [max_int]. *)

val search : t -> int -> hit
(** [search t k]: rank, membership and both stored neighbours of [k] in
    one chunk search and one in-chunk search — O(log n), with no
    Fenwick descent. The neighbours are read from the located chunk, or
    from the previous chunk's maximum when [k] sorts first in its chunk.
    This is the query path of the 1-d instance. *)

(** {2 The search in two steps}

    {!search} is a lower bound over the chunk maxima, then one inside the
    chunk it names. These expose both steps, so a caller can run the
    steps of many sequences through {!lower_bounds} together: [j] is the
    lower bound of [k] in the first [chunk_count t] cells of [maxima t],
    and when [j < chunk_count t], [p] is its lower bound in the first
    [chunk_length t j] cells of [chunk t j]. The arrays are the
    sequence's own: read them, never write them. *)

val chunk_count : t -> int
val maxima : t -> int array
val chunk : t -> int -> int array
val chunk_length : t -> int -> int

val hit_at : t -> chunk:int -> offset:int -> int -> hit
(** [hit_at t ~chunk:j ~offset:p k] is [search t k] from the two lower
    bounds above ([p] is ignored when [j = chunk_count t]). *)

val insert : t -> int -> bool
(** Add a key; [false] if already present. At most one O(√n) chunk
    memmove plus amortized split work. *)

val remove : t -> int -> bool
(** Drop a key; [false] if absent. Same cost shape as {!insert}. *)

val to_array : t -> int array
(** Ascending; O(n) with no per-element search. *)

val insert_batch : ?pool:Pool.t -> t -> int array -> int
(** [insert_batch t ks] adds every key of the strictly increasing batch
    [ks], one {!insert} per key in batch order, and returns how many were
    new (keys already stored are skipped). The whole batch is checked
    first: if [ks] is not strictly increasing it raises
    [Invalid_argument] and leaves [t] as it was. [?pool] is ignored; it
    stays only because the [perf/] [ordseq_layers] probe passes one. No
    library code calls this. *)

val chunk_lengths : t -> int array
(** Live length of every chunk in order: the layout probe the tests
    compare across job counts. *)

val check : t -> unit
(** Validates chunk bounds, maxima, Fenwick sums and strict global
    ordering; raises [Failure] on violation. *)
