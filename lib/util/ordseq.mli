(** Chunked sorted-sequence engine: the host-local backing store for the
    1-d level sets and skip-graph baselines.

    A sequence of distinct integers is kept in sorted order across O(√n)
    chunks of O(√n) keys each, with a summary array of chunk maxima and a
    Fenwick (binary-indexed) prefix-count over chunk lengths. Searches
    ([mem]/[lower_bound]/[search]/[get]) cost O(log n); an insert or remove
    memmoves at most one chunk — an O(√n) bound — with splits, merges and
    periodic re-chunking amortized. [of_sorted_array] bulk-loads in O(n).

    This replaces the copy-the-whole-array update path the 1-d structures
    shipped with ({!Skipweb_core.Instances.Ints}, the skip-graph level
    lists, the deterministic SkipNet): those made every host-local update
    O(n) even though the paper's counted message cost is O(log n). The
    container is purely host-local machinery — positions, range codes and
    answers are bitwise what the flat-array code produced, so the message
    model is untouched (the test suite pins seeded workload totals).

    The positional companion {!Vec} stores an int per {e position} (no
    ordering), for the parallel id/height arrays the skip-graph structures
    splice in lockstep with their key sequence. *)

(** {1 Shared sorted-array searches}

    The one binary-search implementation the repo's modules share (the
    linked-list range algebra, the blocked 1-d cone projection and the
    chunks here all use it). [len] restricts the search to a prefix of the
    array — chunks are allocated beyond their live length. *)

val array_lower_bound : ?len:int -> int array -> int -> int
(** Index of the first element [>= k] (or [len]); the array's first [len]
    elements must be sorted ascending. *)

val array_upper_index : ?len:int -> int array -> int -> int
(** Index of the last element [<= k], or [-1]. *)

(** {1 The chunked sorted sequence} *)

type t

val create : unit -> t
(** An empty sequence. *)

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
val is_empty : t -> bool

val mem : t -> int -> bool
(** O(log n). *)

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
    This is the query path of the 1-d instance; {!get} is not on it. *)

val get : t -> int -> int
(** [get t i] is the i-th smallest element (0-based), via the Fenwick
    index in O(log n). Raises [Invalid_argument] when out of range. *)

val insert : t -> int -> bool
(** Add a key; [false] if already present. At most one O(√n) chunk
    memmove plus amortized split work. *)

val remove : t -> int -> bool
(** Drop a key; [false] if absent. Same cost shape as {!insert}. *)

val predecessor : t -> int -> int option
val successor : t -> int -> int option

val nearest : t -> int -> int option
(** Nearest stored key by absolute distance; ties go to the predecessor
    (matching [Linklist.nearest]). *)

val iter : (int -> unit) -> t -> unit
(** Ascending; O(n) with no per-element search. *)

val to_array : t -> int array

val range_keys : t -> lo:int -> hi:int -> int list
(** Keys in the closed interval [\[lo, hi\]], ascending — O(log n + k). *)

val insert_batch : ?pool:Pool.t -> t -> int array -> int
(** [insert_batch ?pool t ks] adds every key of the strictly increasing
    batch [ks] and returns how many were actually new (duplicates of
    stored keys are skipped). A batch into an empty sequence is a bulk
    load. A batch of fewer keys than the sequence has chunks (or than 4)
    takes the per-key path: one {!insert} per key, in batch order, on
    the calling domain. Any other batch is routed to chunks by the
    summary array; each affected chunk's slice is spliced independently
    — over [?pool] workers when given — and a sequential merge/commit
    pass then rebuilds the chunk summaries and Fenwick counts. The final
    layout is a pure function of the pre-state and the batch: bit
    identical for any job count, including [?pool = None]. Raises
    [Invalid_argument] if [ks] is not strictly increasing. *)

val remove_batch : ?pool:Pool.t -> t -> int array -> int
(** [remove_batch ?pool t ks] drops every stored key of the strictly
    increasing batch [ks] (absent keys are ignored) and returns how many
    were removed. Same per-key path (one {!remove} per key below the
    chunk count), sharding, determinism and cost shape as
    {!insert_batch}; affected chunks compact in place. *)

val chunk_lengths : t -> int array
(** Live length of every chunk in order — the layout probe the
    parallel-splice tests compare across job counts. *)

val check : t -> unit
(** Validates chunk bounds, maxima, Fenwick sums and strict global
    ordering; raises [Failure] on violation. *)

(** {1 Positional chunked vector} *)

(** Same chunk machinery indexed by {e position} instead of key: O(log n)
    [get]/[set], O(√n)-bounded [insert_at]/[remove_at]. The skip-graph
    structures keep their per-position ids and heights here so a splice
    no longer copies parallel O(n) arrays. Splices go one position at a
    time: the chunk-sharded batch splice is keyed, so only the sorted
    sequence has one ({!insert_batch}/{!remove_batch}). *)
module Vec : sig
  type t

  val create : unit -> t
  val of_array : int array -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit

  val insert_at : t -> int -> int -> unit
  (** [insert_at t i v] makes [v] the element at position [i]
      (0 <= i <= length). *)

  val remove_at : t -> int -> int
  (** Removes and returns the element at position [i]. *)

  val iter : (int -> unit) -> t -> unit
  val to_array : t -> int array
  val check : t -> unit
end
