(** The generic skip-web hierarchy (§2.3–§2.5, §4): a binary tree of level
    sets produced by repeated random halving, one range-determined link
    structure per set, searched top-down through conflict refinement.

    Level 0 holds the full ground set S; each element's membership vector
    routes it through one set per level, so level ℓ partitions S into 2^ℓ
    sets and the top level K = ⌈log₂ n⌉ has expected-O(1)-size sets. A
    query starts at the top-level structure of the originating element and
    refines through K structures down to D(S); the set-halving lemma makes
    each refinement O(1) expected ranges, so the expected message cost is
    O(log n) under the arbitrary (hashed) blocking of §2.4 — Theorem 2's
    general bound, for any {!Range_structure.S}.

    Placement: every range of every level structure is assigned to one of
    the H = n hosts by a deterministic hash (§2.4's "arbitrary
    assignment"); per-host memory is then O(log n) w.h.p. The improved
    contiguous blocking for one-dimensional data lives in {!Blocked1d}. *)

module Network = Skipweb_net.Network

module Make (S : Range_structure.S) : sig
  type t

  val build :
    net:Network.t ->
    seed:int ->
    ?p:float ->
    ?r:int ->
    ?cache_levels:int ->
    ?cache_replicas:int ->
    ?pool:Skipweb_util.Pool.t ->
    S.key array ->
    t
  (** [build ~net ~seed keys] constructs the hierarchy over hosts of
      [net]. [p] is the halving probability (default 0.5) — the A3
      ablation knob: each membership bit is 1 with probability [p].
      [r] is the replication factor (default 1): every range of every
      level structure is mirrored on [r] {e distinct} hosts, drawn by the
      same pure placement hash with a per-replica salt (draws colliding
      with an earlier copy of the same range are skipped), so per-host
      memory scales by [r] while queries keep visiting primaries — with
      [r = 1] (and no failures) every message count, charge and answer is
      bit-identical to the pre-replication code, and killing at most
      [r - 1] hosts can never destroy every copy of a range. Replicas exist to survive host
      failures: queries fail over to the first live replica mid-walk, and
      {!repair} re-homes dead hosts' copies. Requires
      [1 <= r <= Network.host_count net].

      [cache_levels] / [cache_replicas] configure the read-path level
      cache (the NoN / bucket-skip-web congestion trick): every range of
      the coarse levels [0 .. cache_levels - 1] — the sparse upper levels
      of the search tree that every query funnels through — carries
      [cache_replicas - 1] cache copies beyond its [r] data replicas,
      placed by the same pure collision-skipping hash (unified replica
      slots [r .. r + cache_replicas - 2], so the [cache_replicas + r - 1]
      copies of a range are always on distinct hosts). A query reads each
      cached level at a deterministic per-origin copy — pure in
      [(seed, origin, level)], hence bit-identical for fixed parameters
      and jobs-invariant — so distinct origins spread a hot range's load
      over all [cache_replicas] copies while per-query message counts stay
      O(log n). The window is anchored at level 0 and is independent of
      the hierarchy's height, so growth or shrinkage never shifts it.
      With [cache_replicas = 1] (the default) the cache is off and every
      message count, charge and answer is byte-identical to the uncached
      code. Requires [cache_levels >= 0], [cache_replicas >= 1] and
      [r + cache_replicas - 1 <= Network.host_count net].

      With [pool], the per-level construction fans out over its domains
      (see {!insert_batch}, which this routes through); the resulting
      structure, storage and per-host memory are bit-identical for any
      jobs count. *)

  val size : t -> int
  val levels : t -> int
  (** K + 1: the number of levels including level 0. *)

  (** {1 Failure handling}

      Placement is a pure hash of (seed, level set, range id, replica
      slot, redraw generation) — the shared {!Skipweb_net.Placement.draw}
      — so a query, the charging discipline and the repair pass always
      agree on where every copy lives without per-copy pointers. When a
      routed host is dead, the query walk fails over to the first live
      replica ({!Skipweb_net.Placement.first_live}); only when {e every} replica of a
      needed range is dead does the walk raise
      [Skipweb_net.Network.Host_dead] (the session is abandoned and
      contributes nothing to the network's counters — the caller decides
      whether to retry or count a failed query). *)

  type repair_stats = Skipweb_net.Placement.repair_stats = {
    scanned : int;  (** live ranges examined *)
    repaired : int;  (** replica copies re-homed (off dead hosts, plus the
                         rare live copy whose skip-collision draw shifted
                         when an earlier copy of its range moved) *)
    messages : int;  (** copy messages: one per re-homed copy with a live source *)
    lost : int;  (** re-homed copies that had no surviving replica (0 when
                     at most r - 1 hosts fail between repairs) *)
  }

  val repair : t -> repair_stats
  (** One self-repair pass: for every replica copy stored on a dead host,
      re-draw its placement (bump the slot's redraw generation until the
      hash lands on a live host), migrate the memory charge, and bill the
      copy by {!Skipweb_net.Placement.bill}: one copy message for stealing
      the range from any surviving replica, or one lost copy.
      Cache copies at cached levels are treated exactly like data
      replicas — re-drawn with the same collision-skipping generation
      scheme and billed in the stats — so a cache never silently survives
      on dead hosts.
      The pass reads each host's liveness once, re-places every range a
      repair already moved from its redraw generations, then visits
      every live range once, counted in [scanned]. A range whose raw
      generation-0 draws land on distinct live hosts is placed there and
      needs nothing; only a range whose raw draws hit a dead host or
      repeat a host is placed exactly (skipping collisions) and, if a
      copy is dead and it holds no redraw entry, re-drawn. Apart from
      the [H]-byte liveness snapshot, the pass allocates O(levels) words
      plus O(1) per copy it moves.
      Requires, for a non-empty hierarchy, at least as many live hosts
      as the copies a level-0 range carries ([r], plus
      [cache_replicas - 1] when the cache is on): otherwise no placement
      exists, and [repair] raises [Invalid_argument] before it changes
      any placement, charge or redraw generation. Enough live hosts is
      necessary, not sufficient: when they are a tiny share of the [H]
      hosts, a copy's draw can pass [Placement.draw]'s cap and [repair]
      raises [Failure] partway. Each range is then either re-homed or
      untouched, so {!check_invariants} still holds, and a later repair
      with more live hosts finishes the job.
      Idempotent once all placements are live; must not run concurrently
      with queries or updates (failure epochs are serialized, like
      updates). The message bill is returned in the stats and {e not}
      added to the network's workload counters, so query-traffic metrics
      stay clean. *)

  val level_set_sizes : t -> int -> int list
  (** Sizes of the non-empty sets at a level (Figure 2 census). *)

  val total_storage : t -> int
  (** Total ranges across all level structures: the O(n log n) replicated
      storage. *)

  type query_stats = {
    messages : int;
    ranges_visited : int;
    per_level_visits : int list;  (** visited ranges per level, top-down *)
  }

  val query :
    ?trace:Skipweb_net.Trace.t -> t -> rng:Skipweb_util.Prng.t -> S.query -> S.answer * query_stats
  (** Route a query from a uniformly random originating element's host.
      With [trace], the query records one leveled span per refinement step
      (closed with a [conflicts=k] note giving that step's conflict-set
      size) and one labeled hop per message, so
      {!Skipweb_net.Trace.per_level_hops} decomposes [messages] by level.
      Tracing never changes the message cost. *)

  val query_batch :
    ?pool:Skipweb_util.Pool.t ->
    t ->
    rng:Skipweb_util.Prng.t ->
    S.query array ->
    (S.answer * query_stats) array
  (** A batch of independent queries, fanned out over [pool]'s domains
      when one is given. Origins are pre-drawn sequentially from [rng]
      (one draw per query, exactly as a loop of {!query} would draw
      them). The walks then run in the structure's own order
      ({!S.order}: key order, z-order for points), so consecutive walks
      read nearby ranges, and each result is returned at its query's
      position. The answers, per-query stats and the
      network's message / traffic totals are bit-identical to the
      sequential loop for {e any} jobs count: neither [?pool] nor the
      processing order changes anything but wall-clock time. A failing
      batch raises the exception of one failing query (the first in
      processing order without a pool, the first to fail with one), and
      the sessions of the walks that finished before it stay committed.
      The structure must not be updated while a batch is in flight (the
      paper serializes updates against queries, §4). *)

  val scan :
    ?trace:Skipweb_net.Trace.t ->
    t ->
    rng:Skipweb_util.Prng.t ->
    S.scan ->
    S.scan_answer * query_stats
  (** A multi-result query (axis-aligned range, k-nearest-neighbors,
      prefix enumeration — whatever {!S.scan} supports): the skip-web
      routes the scan's probe ({!S.scan_probe}) from a random origin down
      to level 0 exactly like {!query}, then runs the structure's scan
      walk in the level-0 set, charging one hop per additional range the
      walk visits. The scan's visits are folded into level 0's
      [per_level_visits] entry. With [trace], the walk appears as a
      [scan <name>] span at level 0. *)

  val scan_batch :
    ?pool:Skipweb_util.Pool.t ->
    t ->
    rng:Skipweb_util.Prng.t ->
    S.scan array ->
    (S.scan_answer * query_stats) array
  (** Independent scans fanned out over [pool]'s domains, with the same
      origin-predrawing, processing order (of the scans' probes,
      {!S.scan_probe}), failure and bit-identical-for-any-jobs-count
      contract as {!query_batch}. *)

  (** {1 Writes}

      Every write runs one step (§4: a locate, then O(1) linking work per
      level). {!insert} and {!remove} are their message bill — a locate
      routed from an origin drawn off the element's id, plus two linking
      messages per level — followed by that step on a one-key batch; the
      batch calls run it without the bill. Host-side work is O(levels)
      bookkeeping per key plus the level structures' own update cost,
      never O(n).

      {b Rejection.} A key the level structures reject (a crossing
      segment, a shared abscissa, a point outside the unit square or of
      the wrong dimension...) raises [Invalid_argument] from level 0's
      set, which holds every key; every rejection is monotone under
      subsets, so no higher level can reject what level 0 accepted. What
      a rejected write leaves stored:
      {ul
      {- into an empty hierarchy, nothing: the write is atomic, every
         built level is released and every drawn id handed back;}
      {- into a non-empty hierarchy, the prefix level 0 accepted: exactly
         the write's fresh keys that sort before the first rejected one
         (polymorphic [compare], the order level 0 takes them in), stored
         at every level with ids drawn in presentation order — the state
         a batch of just those keys would leave. A rejected single
         {!insert} therefore leaves the hierarchy exactly as it was; only
         its locate's messages were billed.}}
      Either way {!check_invariants} holds afterwards. *)

  val insert : t -> S.key -> int
  (** Add an element; returns the message cost (the locate plus the
      linking messages, read before the write grows the hierarchy). A
      key already stored costs 0 and changes nothing. Grows the level
      hierarchy when n crosses a power of two. *)

  val remove : t -> S.key -> int
  (** Delete an element; returns the message cost (0, and no change, for
      an absent key). Raises if the underlying structure does not support
      deletion. Shrinks the level hierarchy when deletions lower
      ⌈log₂ n⌉, so a heavily shrunk set does not keep paying linking
      messages and memory for dead levels. *)

  val insert_batch : ?pool:Skipweb_util.Pool.t -> t -> S.key array -> int
  (** Bulk insertion by the write step, skipping duplicates and keys
      already stored; returns the number of keys inserted. Host-side
      work only — no query routing, so no messages. Ids, which fix the
      membership vectors, are drawn in presentation order, so a bulk
      load is indistinguishable from the same keys arriving one at a
      time.

      Into a non-empty hierarchy, level 0 takes the fresh keys first, in
      sorted order, by the per-key update step of {!insert}; the keys it
      accepted are then registered and streamed through levels 1 .. K,
      each level set taking its share by the same step, or one build
      when the batch creates the set. A batch landing in an empty
      hierarchy takes the bulk level builder instead (per level, one
      counting sort of the ground set by membership prefix and one build
      per level set), as do the new top levels when a batch grows the
      hierarchy. [build] routes through this. On a rejection, see
      {e Writes} above.

      With [pool], the levels fan out over its domains, one task per
      level dispatched heaviest-first — levels 1 .. K after level 0, or
      every level of a bulk build; no level structure ever sees the
      pool. This is safe and {e deterministic} because every membership
      path is drawn sequentially before any level task starts, all
      mutable state of a level (its structures and its repair redraw
      table) is touched by exactly one task, and memory charges are
      per-host sums added straight to the network's atomic counters — so
      the final structures, the charged memory of every host and the
      return value are bit-identical for any jobs count; only the wall
      clock changes. Must not be called from inside another batch on the
      same pool. *)

  val remove_batch : ?pool:Skipweb_util.Pool.t -> t -> S.key array -> int
  (** Bulk deletion by the write step, the mirror of {!insert_batch}: one
      sorted sweep per level (fanned over [pool] when given, with the
      same determinism guarantee), each level set losing its share by
      the per-key step of {!remove} or dropped outright once the batch
      empties it, then one hierarchy shrink at the end. Returns the
      number of keys removed (absent keys and duplicates are skipped). *)

  val mean_refinement_work : t -> queries:S.query array -> rng:Skipweb_util.Prng.t -> float
  (** Average ranges visited per level over a query batch — the empirical
      set-halving constant (E12's inner measurement). *)

  val check_invariants : t -> unit
  (** Validates: the empty structure that every hierarchy of this functor
      application shares for its unused prefix slots is still empty, the
      live-id arena is consistent, the number of levels
      matches ⌈log₂ n⌉, every level partitions the ground set (the live
      ids, recounted per membership prefix, match each structure's size,
      and no structure exists for an empty prefix), and every copy of
      every live range — placed by the replica hash over each structure's
      range ids — sums host-for-host to {!Network.memory}, which the
      updates charged incrementally from range deltas (so an inexact
      delta is caught here; this assumes the hierarchy is the only
      structure charging its network, as in the tests). Every redraw
      entry a repair left behind must belong to a live range of its level
      (its packed key must decode to a live set of the level and encode
      back to itself) and carry one generation per replica slot, at least
      one of them
      non-zero — a stale entry would silently move a later range that
      reuses the same range id. Raises [Failure] on violation. *)
end
