(** A message-counting simulator of the paper's peer-to-peer cost model
    (§1.1).

    The model: [H] hosts, each able to send a message to any other host.
    A distributed structure maps its nodes and links onto hosts; traversing
    a pointer whose target lives on a different host costs exactly one
    message, while intra-host pointer chasing is free. Per-host memory is
    measured in stored items / nodes / pointers / host IDs.

    Hosts can {e fail}: {!kill} marks a host dead and {!revive} brings it
    back. A session that tries to move onto a dead host raises
    {!Host_dead} — the failed hop is the simulator's model of a timed-out
    RPC, and it is the structures' job to fail over to a live replica
    instead (see [Hierarchy] / [Blocked1d] replication). Killing a host
    does not touch any counter: its memory charges remain recorded as
    {e stranded} until a structure's repair pass migrates them to live
    hosts, which mirrors the real-world separation between a host dying
    and the overlay noticing and repairing.

    Every query or update runs inside a {!session}, which tracks the host
    currently processing the operation and counts boundary crossings. A
    session buffers its counts locally and commits them to the network's
    shared counters only at {!finish}; the shared counters are atomics, so
    finished sessions may have run concurrently on different domains (the
    parallel read path) and the accumulated totals are still exactly the
    sums a sequential run would produce. The network accumulates per-host
    traffic (visits) across sessions for congestion reporting, and per-host
    memory charges for the [M] and [C(n)] columns of Table 1. Memory
    charges need no session: writers, the concurrent per-level write
    tasks included, add them straight to the atomic per-host counters. *)

type t

type host = int
(** Hosts are identified by integers in [\[0, host_count)]. *)

val create : hosts:int -> t
(** [create ~hosts] makes a network of [hosts] hosts, all initially live.
    Requires [hosts >= 1]. *)

val host_count : t -> int

(** {1 Failure model}

    [kill] and [revive] are {e epoch} operations: they must not run
    concurrently with in-flight sessions or writes on other domains
    (failure epochs are serialized against query batches, exactly as
    updates are). They are safe to interleave {e sequentially} with
    anything: killing a host never zeroes or rejects counters, so a
    charge made after a [kill] lands on the dead host like any other,
    and {!reset_traffic} keeps its usual meaning — the failure axis and
    the workload counters are orthogonal. *)

exception Host_dead of host
(** Raised by {!start} and {!goto} when the target host is dead: the
    operation's current hop timed out. The session that raised remains
    unfinished and contributes nothing to the network's counters. *)

val kill : t -> host -> unit
(** Mark a host dead. Idempotent. Its memory charges stay recorded
    (stranded — see {!stranded_memory}) until a repair pass migrates them;
    its traffic history is kept. Raises [Invalid_argument] when asked to
    kill the last live host. *)

val revive : t -> host -> unit
(** Mark a host live again (a rejoin). Idempotent. Counters are untouched:
    if no repair pass migrated the host's charges while it was dead, they
    are simply reachable again. *)

val alive : t -> host -> bool

val live_hosts : t -> int
(** Number of currently live hosts; always >= 1. *)

(** {1 Memory accounting}

    Memory charges describe the structure, not a workload. Charging
    counts {e nothing} toward {!sessions_started}, {!total_messages} or
    traffic: host-side structure maintenance is not an operation in the
    cost model, it only moves stored units between hosts. The per-host
    counters are atomics: the parallel write path runs one task per
    hierarchy level on different domains, each charging the network
    directly, so charges may interleave. Every counter is a sum of
    deltas, and sums are order-independent — per-host memory after a
    parallel batch is bit-identical to the sequential run of the same
    batch. *)

val charge_memory : t -> host -> int -> unit
(** [charge_memory net h k] records that host [h] stores [k] more units
    (items, structure nodes, pointers or host IDs). [k] may be negative
    (deletion); asserts that the host's total stays non-negative. Safe to
    call concurrently from several domains as long as each writer only
    releases units it charged itself earlier — a hierarchy level task
    releases only copies of its own level's ranges — so no prefix of the
    interleaved charges can drive a counter below zero. *)

val memory : t -> host -> int
val max_memory : t -> int
(** Largest per-host memory charge over {e all} hosts, dead or live (it
    describes stored state; use {!congestion} for the serving view). *)

val mean_memory : t -> float
(** Total memory divided by the number of {e live} hosts — the mean load a
    serving host carries. With no failures this is total/H as before. *)

val total_memory : t -> int

val stranded_memory : t -> int
(** Sum of the memory charges currently recorded on dead hosts: state that
    a repair pass still has to migrate (or that dies with the host). *)

(** {1 Sessions: one query or update}

    Lifecycle: {!start} … {!goto}* … {!finish}. Between [start] and
    [finish] a session touches only its own state, so independent sessions
    (read-only queries) may run concurrently on different domains against
    the same network. [finish] commits the session's message count and its
    per-host visit deltas to the shared atomic counters; since every
    committed quantity is a sum of non-negative deltas, the network totals
    after all sessions finish are independent of interleaving —
    bit-identical to running the same sessions sequentially. A session
    that is never finished contributes nothing to the network. *)

type session

val start : ?trace:Trace.t -> t -> host -> session
(** Begin an operation at host [h] (the host owning the operation's root
    pointer). The starting visit is recorded for congestion (committed at
    {!finish}) but costs no message. Raises {!Host_dead} if [h] is dead. When [trace] is supplied, every
    subsequent boundary crossing of this session is recorded into it as a
    {!Trace.Hop}; when absent the session does no trace work at all, so
    the cost model is unchanged by the existence of the tracing
    machinery. *)

val current : session -> host

val goto : ?label:string -> session -> host -> unit
(** [goto s h] moves the locus of processing to host [h]. Costs one message
    (and one unit of traffic at [h], committed at {!finish}) iff [h]
    differs from the current host. [label] tags the hop in the session's
    trace (ignored for untraced sessions); it never affects costs.
    Raises [Invalid_argument] if the session is already finished, and
    {!Host_dead} if [h] is dead — the hop is not charged, the session
    stays where it was and may retry against a live replica. *)

val messages : session -> int
(** Messages sent so far in this session (session-local; readable at any
    time, before or after {!finish}). *)

val finish : session -> unit
(** Commit the session: one started session, [messages s] toward
    {!total_messages}, and one traffic unit per buffered host visit.
    Idempotent — a second [finish] is a no-op. Every [start] must be
    paired with a [finish] before the network's workload counters are
    read; the pinned message-total guards in the test suite exist to
    catch a forgotten one. *)

(** {1 Traffic / congestion} *)

val total_messages : t -> int
(** Sum of messages over all {e finished} sessions since the last
    {!reset_traffic}. *)

val sessions_started : t -> int
(** Number of {e finished} sessions (the name predates the deferred-commit
    sessions: a session is counted when it finishes, so that
    [total_messages / sessions_started] always describes completed
    operations only). *)

val traffic : t -> host -> int
(** Number of session visits host [h] has served (finished sessions). *)

val max_traffic : t -> int

val mean_traffic : t -> float
(** Total visits divided by the number of {e live} hosts: the mean load on
    the hosts actually serving. Dividing by all hosts would silently
    understate per-host load as soon as hosts die (a killed host serves
    nothing but would still dilute the mean). With no failures this is the
    historical total/H. *)

val reset_traffic : t -> unit
(** Zero every workload counter: per-host traffic, the global message
    total, {e and} {!sessions_started} — the three always describe the same
    window of operations, so a partial reset would silently skew per-session
    averages computed as [total_messages / sessions_started]. Memory charges
    are kept: they describe the structure, not the workload. Must not run
    concurrently with live sessions. *)

val congestion : t -> items:int -> float
(** The paper's static congestion measure for the most loaded host:
    references stored at the host (we use its memory charge) plus the
    expected query-start share. Both terms range over {e live} hosts only —
    a dead host's stranded memory is unreachable, not congested, and query
    starts spread over the [live_hosts t] survivors. With no failures this
    is the historical [max_memory + items/H]. *)
