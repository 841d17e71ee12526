(** A fixed-size domain pool for the parallel read and write paths.

    Queries against a skip-web are independent read-only walks, and once
    the membership coins are drawn a batch update decomposes into
    independent per-level repairs (§4). This pool is the execution engine
    for fanning either kind of work out over OCaml 5 domains: [jobs - 1]
    worker domains plus the submitting domain drain a shared task queue,
    so a pool of [~jobs:k] runs at concurrency [k].

    Two dispatch disciplines are offered, and choosing between them is a
    determinism-versus-balance contract:

    {ul
    {- {e Deterministic static chunking} ({!parallel_for}): an index range
       is cut into at most [jobs] contiguous chunks whose boundaries
       depend only on the range and the jobs count — never on scheduling —
       so any per-chunk derivation (PRNG streams, metrics shards) is
       reproducible across runs. The cost: chunks are equal-sized by
       {e count}, so when per-index costs are skewed (a geometric level
       hierarchy, a handful of coarse tasks) the slowest chunk serializes
       the tail.}
    {- {e Dynamic largest-first dispatch} ({!parallel_for_tasks}): tasks
       are claimed one at a time from a shared counter in descending
       cost-weight order, the classical LPT greedy. Which domain runs
       which task depends on timing, so tasks must not derive anything
       from "their" domain; in exchange, a few heavy tasks no longer pin
       the wall clock to one domain's share.}}

    [~jobs:1] executes inline on the calling domain with no queue, no
    locks and no domains: the sequential behaviour is the identity case,
    not a special one.

    A pool is {e not re-entrant}: tasks must not themselves call
    {!parallel_for}/{!parallel_for_tasks}/{!parallel_map} on the same pool
    (detected and rejected with [Invalid_argument]). One batch runs at a
    time. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. Requires [jobs >= 1];
    [~jobs:1] spawns nothing. Call {!shutdown} when done. *)

val jobs : t -> int
(** The concurrency level the pool was created with. *)

val clamp_jobs : ?warn:bool -> int -> int
(** [clamp_jobs jobs] caps a requested jobs count at
    [Domain.recommended_domain_count ()], printing a one-line warning to
    stderr (suppress with [~warn:false]) instead of silently
    oversubscribing domains. Values at or under the cap pass through
    unchanged; so do values [<= 1] (the sequential convention). Every
    [--jobs] entry point (bench driver, CLI) routes through this. *)

(** {1 Utilization}

    Per-slot busy time and task counts, for observing how evenly a
    parallel phase spread over the domains. Worker domain [i] owns slot
    [i]; the submitting domain (which helps drain) owns slot [jobs - 1].
    Each slot is written only by its own domain, and batch completion
    synchronizes, so reading between batches is race-free. Wall-clock
    figures — never part of any determinism contract. *)

type utilization = {
  tasks : int array;
      (** work items (chunk indices, dynamic claims) executed per slot,
          [jobs] entries *)
  busy_s : float array;  (** wall-clock seconds spent inside tasks *)
}

val utilization : t -> utilization
(** Snapshot (copies) of the counters accumulated since creation or the
    last {!reset_utilization}. Call between batches, not during one. *)

val reset_utilization : t -> unit

val record_metrics : t -> Metrics.t -> unit
(** Export the utilization snapshot into a metrics registry as counters:
    [pool.jobs], and per slot [pool.slotNN.tasks] /
    [pool.slotNN.busy_us]. The CLI's [stats]/[hotspots] use this behind
    [--pool-stats] (off by default: the figures are wall-clock and
    jobs-dependent, so they would break the byte-identical-across-jobs
    diff of the registry export). *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for every [i] in [\[lo, hi)],
    split into contiguous static chunks across the pool's domains. Within
    a chunk, indices run in ascending order. If any [f i] raises, the
    first exception (in completion order) is re-raised in the caller after
    all chunks have finished; the pool remains usable. Empty ranges are
    no-ops. *)

val parallel_for_tasks : t -> weights:int array -> (int -> unit) -> unit
(** [parallel_for_tasks pool ~weights f] runs [f i] once for every index
    [i] of [weights], dispatching dynamically in descending [weights.(i)]
    order (ties broken by ascending index, so the claim order is
    deterministic even though the index-to-domain assignment is not).
    Meant for small batches of coarse tasks with skewed costs — e.g. one
    task per hierarchy level, where level 0 carries half the total work:
    starting the heaviest task first bounds the makespan at the LPT
    guarantee instead of whatever the static chunk boundaries happen to
    hit. Weights only order the schedule; they never affect {e what} runs.
    Tasks must be mutually independent and must not derive results from
    scheduling. Exception semantics match {!parallel_for}: every index is
    still claimed (a failed task never blocks the rest of the batch) and
    the first failure is re-raised. [~jobs:1] runs indices in ascending
    order inline. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs] with the elements
    processed across the pool's domains; the result preserves index order,
    so reductions over it are bit-identical to the sequential map
    regardless of the jobs count. Arrays with at least [2 * jobs] elements
    use {!parallel_for} static chunks; smaller arrays fall back to dynamic
    one-at-a-time dispatch, because with fewer than two chunks per domain
    a single expensive element would serialize its whole chunk's
    neighbours behind it. [f] therefore must not derive results from the
    domain it happens to run on — only from its argument. *)

val map_in_order : ?pool:t -> order:int array -> ('a -> 'b) -> 'a array -> 'b array
(** [map_in_order ?pool ~order f xs] is [Array.map f xs] with the calls
    made in the order the permutation [order] lists the indices: [f]
    runs on [xs.(order.(0))] first, then [xs.(order.(1))], and so on.
    Each result lands at its element's own index, so the output is the
    same for any [order] when [f] is pure. With [pool], [order] is cut
    the way {!parallel_map} cuts an array, so each domain runs a
    contiguous stretch of it. A batch whose elements share state by
    position in some order (a tree walked by nearby keys) runs faster
    in that order; nothing else changes. Raises [Invalid_argument]
    unless [order] lists every index of [xs] exactly once. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Using the pool after
    shutdown raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t option -> 'a) -> 'a
(** [with_pool ~jobs f] calls [f (Some pool)] with a fresh pool and shuts
    it down afterwards (also on exceptions) — or calls [f None] when
    [jobs <= 1], the convention batch entry points use for "run
    sequentially inline". *)
