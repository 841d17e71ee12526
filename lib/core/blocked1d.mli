(** One-dimensional skip-webs with the improved blocking strategy of
    §2.4.1 — Table 1 rows 6 (skip-webs) and 7 (bucket skip-webs), and the
    O(log n / log log n) clause of Theorem 2.

    The level hierarchy is the same binary tree of randomly halved sets as
    {!Hierarchy}, specialized to sorted integer sets whose ranges (nodes
    and closed links) carry a dense code under which conflict lists are
    contiguous intervals. Levels that are multiples of L = ⌈log₂ M⌉ are
    {e basic}: their structures are cut into contiguous blocks of ranges,
    each owned by one host. A host also stores the {e cone} of its block —
    for every non-basic level above it (up to the next basic level), the
    contiguous interval of ranges whose conflict chains reach the block.

    A query therefore only crosses hosts when it moves past a basic level
    (expected O(1) external hops each), giving O(log n / log M) expected
    messages: O(log n / log log n) with M = Θ(log n) on H = n hosts
    (row 6), and O(log_M H) with H < n hosts and M = n/H + Θ(log H)
    (row 7, the bucket skip-web — same module, different parameters; with
    M = n^ε the cost is O(1)).

    Updates pay a locate plus O(1) messages per {e basic} level only —
    the ranges of non-basic levels are co-located with basic blocks, and
    block splits amortize against the insertions that grew them (§4). *)

module Network = Skipweb_net.Network
module Prng = Skipweb_util.Prng

type t

val build :
  net:Network.t ->
  seed:int ->
  m:int ->
  ?r:int ->
  ?cache_levels:int ->
  ?cache_replicas:int ->
  ?pool:Skipweb_util.Pool.t ->
  int array ->
  t
(** [build ~net ~seed ~m keys]: distribute over all hosts of [net] with
    per-host memory target [m] (the M parameter). Keys must be distinct.
    Raises [Invalid_argument] if [m < 4].

    [r] is the replication factor (default 1): every block — and the cone
    it drags along — is mirrored on [r] distinct live hosts (the [r]
    consecutive positions of the round-robin owner draw), scaling per-host
    memory by [r]. Queries keep routing to primaries, so with no failures
    any [r] produces message counts bit-identical to [r = 1], which is
    itself bit-identical to the pre-replication code. Requires
    [1 <= r <= Network.host_count net].

    With [pool], the rebuild's two bulk phases — per-level set bucketing
    and per-block cone computation — fan out over the pool's domains,
    with sequential commits in between, so the resulting structure
    (including the head-host order of every replica list, and hence every
    later query's message count) and all memory charges are bit-identical
    for any jobs count. The structure {e keeps} the pool for the rebuilds
    that {!insert}, {!delete} and {!repair} trigger, so the pool must stay
    alive as long as this structure receives updates.

    [cache_levels] / [cache_replicas] configure the read-path group cache
    (the congestion-flattening trick of the skip-graph NoN line): every
    {e basic block group} — a block plus the cone it drags along — whose
    basic level is below [cache_levels] keeps [cache_replicas - 1] whole
    extra copies on distinct live hosts, drawn by the shared
    {!Skipweb_net.Placement.draw} and kept after the block's owners in
    its one copy array. A query reads all levels of a cached group at one deterministic
    per-origin copy (pure in [(seed, origin, basic level)]), so hosts are
    still only crossed at basic-level boundaries — message counts keep the
    O(log n / log log n) bound — while distinct origins spread a hot
    group's load over all [cache_replicas] copies. With
    [cache_replicas = 1] (the default) the cache is off and routing is
    byte-identical to the uncached code. Requires [cache_levels >= 0] and
    [1 <= cache_replicas] with [r + cache_replicas - 1 <= host count]. *)

val size : t -> int
val levels : t -> int

val set_cache : t -> levels:int -> k:int -> unit
(** Reconfigure the read-path group cache in place: per block, release
    the cache copies' memory charges, truncate the copy array to its
    owners, then re-draw and charge the cache copies the new window asks
    for. Blocks, cones, owners and every owner charge are untouched — no rebuild — so sweeping [k] against one build of a large
    structure is cheap (the E20 serving bench relies on this). Placement
    is a pure function of the structure and the live-host set, so
    [set_cache] and a rebuild always agree on where every copy lives.
    Same argument requirements as [build]'s cache parameters. *)

val basic_levels : t -> int list
(** The basic level indices, ascending. *)

val block_size : t -> int
val total_storage : t -> int
(** Ranges summed over all level structures (before replication). *)

val replicated_storage : t -> int
(** What hosts actually store: blocks plus cones. *)

val max_host_memory : t -> int

type search_result = {
  predecessor : int option;
  successor : int option;
  nearest : int option;
  messages : int;
}

val query : ?trace:Skipweb_net.Trace.t -> t -> rng:Prng.t -> int -> search_result
(** Nearest-neighbor query from a random originating element's host.
    With [trace], the descent records one leveled span per level — named
    ["basic level"] or ["cone level"], closed with a [replicas=k] note for
    the number of hosts covering the located range — and labels each hop
    ["block"] or ["cone"], so {!Skipweb_net.Trace.per_level_hops} shows
    exactly where the O(log n / log log n) bound spends its messages.
    Tracing never changes the message cost. *)

val query_batch :
  ?pool:Skipweb_util.Pool.t -> t -> rng:Prng.t -> int array -> search_result array
(** A batch of independent nearest-neighbor queries, fanned out over
    [pool]'s domains when one is given. Origins are pre-drawn sequentially
    from [rng] (one draw per query, exactly as a loop of {!query} would);
    the descents then run in key order and each result is returned at
    its query's position. Answers, per-query message counts and the
    network's message / traffic totals are bit-identical to the
    sequential loop for {e any} jobs count: neither [?pool] nor the
    processing order changes anything but wall-clock time. A failing
    batch raises the exception of one failing query (the first in key
    order without a pool, the first to fail with one), and the sessions
    of the descents that finished before it stay committed. The
    structure must not be updated while a batch is in flight (§4
    serializes updates). *)

val insert : t -> int -> int
(** Message cost: locate + O(1) per basic level. No-op cost 0 on
    duplicates. The key is spliced into a fresh copy of the ground set
    and the block / cone maps are rebuilt from it, unmetered. *)

val delete : t -> int -> int
(** Mirror of {!insert}; no-op cost 0 on absent keys. *)

val check_invariants : t -> unit
(** Strictly ascending level sets, each level partitioning exactly the
    level-0 set (the ground set), block coverage, replica coverage of
    non-basic ranges, monotone cone tables, and conflict-chain soundness
    on samples; for the same samples, that the base block holding the key
    lies in the run of cone entries covering its range at every cone
    level, which is what queries route by. Every block holds its owners
    plus its window's cache copies on distinct hosts, and every host's
    charged memory equals the units those copies place on it. *)

(** {1 Failure handling}

    Queries route to the first live replica of every block / cone interval
    they need (or, for a cached group, to their cache copy while it is
    live) — the shared {!Skipweb_net.Placement.first_live} and
    {!Skipweb_net.Placement.read} rules; only when {e all} [r] copies are
    dead does the walk raise
    [Skipweb_net.Network.Host_dead] (the session is abandoned and counts
    nothing — the caller decides whether to retry or record a failed
    query). Rebuilds — including the ones {!insert}/{!delete} trigger —
    place blocks on live hosts only, so an update under failure is itself
    a partial repair. *)

type repair_stats = Skipweb_net.Placement.repair_stats = {
  scanned : int;  (** block and cone-interval entries examined *)
  repaired : int;  (** stored units re-homed off dead hosts *)
  messages : int;  (** steal messages: one per re-homed unit with a live copy *)
  lost : int;  (** re-homed units with no surviving replica (0 when at most
                   r - 1 hosts fail between repairs) *)
}

val repair : t -> repair_stats
(** One self-repair pass: bill every copy currently stored on a dead
    host — owners and cache copies alike, for all the units its group
    stores — by {!Skipweb_net.Placement.bill} (a steal from any surviving
    copy, or a loss), then rebuild the
    block / cone maps over the live hosts — stranded memory charges
    migrate to live hosts as part of the re-charge. Idempotent once all
    placements are live; must not run concurrently with queries or updates
    (failure epochs are serialized, like updates). The message bill lives
    in the stats and is {e not} added to the network's workload counters,
    so query-traffic metrics stay clean. *)

type range_result = { keys : int list; messages : int }

val range : t -> rng:Prng.t -> lo:int -> hi:int -> range_result
(** Range query (§1's "range queries over various numerical attributes"):
    route to [lo] like a nearest-neighbor query, then walk the level-0
    list rightwards to [hi]. Message cost is the locate cost plus one
    message per level-0 block boundary crossed — O(log n / log log n + k/B)
    for k reported keys and block size B. *)
