(** The shared batch presort: sort-and-dedup an arbitrary key array under
    a caller-supplied total order, optionally fanning the sort over a
    {!Pool}.

    Every batch engine (the 1-d sorted list and its [Ordseq.of_array]
    bulk load, the compressed quadtree, the compressed trie) starts from
    the same primitive: turn "whatever the caller handed us" into a
    strictly-increasing key array under the structure's own order (rank
    order, z-order, lexicographic). This module is that primitive, factored out
    of the per-instance copies so the semantics are pinned in exactly one
    place (and unit-tested as such). *)

val sorted_distinct : ?pool:Pool.t -> cmp:('a -> 'a -> int) -> 'a array -> 'a array
(** [sorted_distinct ~cmp a] returns an array that is strictly increasing
    under [cmp] and contains exactly one representative of every
    [cmp]-equivalence class of [a].

    Semantics (pinned by the unit tests):
    {ul
    {- If [a] is already strictly increasing under [cmp] — the common case
       for pre-sorted bulk loads — the {e very same array} is returned
       (physical identity, no copy). Callers that mutate the result must
       therefore copy it first; the batch engines never do.}
    {- Otherwise a fresh array is returned and [a] is left untouched.}
    {- When elements of an equivalence class are structurally equal (as
       for every instance key type: ints, grid coordinate arrays, strings,
       segment records), the surviving representative is that common
       value. For classes with structurally distinct members the choice of
       representative is unspecified — no instance relies on it.}}

    With [pool], large inputs (n ≥ 10⁶, where two domains measured
    faster than one on every timed int sort) are sorted as static
    segments on the pool's domains and combined by deterministic pairwise
    merge rounds. The sorted-distinct sequence of an input multiset is
    unique, so the result is {e bit-identical} to the sequential sort for
    any jobs count; only the wall clock changes.
    [cmp] must be a total order and is called concurrently, so it must be
    pure. *)

val order : cmp:('a -> 'a -> int) -> 'a array -> int array
(** [order ~cmp a] is the stable sorting permutation of [a]: every index
    of [a] once, listing the elements non-decreasing under [cmp], equal
    elements in index order. [a] is left untouched. It is a pure function
    of [a] and [cmp]; an already non-decreasing [a] yields the identity
    after one pass, without a sort. *)
