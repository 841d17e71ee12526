(** The copy engine both skip-webs share: where the copies of a stored
    unit live, which copy a read uses, and what a repair bills.

    A unit — a range of the generic hierarchy, a block group of
    {!Skipweb_core.Blocked1d} — keeps its copies in one array of hosts:
    its [data] replicas first (slot 0 is the primary), then its cache
    copies when its level is cached. Copies are placed by pure hash
    draws, so every consumer (charging, routing, repair, the invariant
    checks) re-derives the same hosts without per-copy pointer state.
    Replication, the cache and repair extend the paper (which assumes
    reliable hosts) after Skip Graphs and the Rainbow Skip Graph. *)

val salt : seed:int -> slot:int -> raw:int -> int
(** The hash salt of raw draw [raw] for copy slot [slot]. At slot 0,
    draw 0 it is [seed] itself. *)

val code : level:int -> prefix:int -> int
(** The code of the level set with membership prefix [prefix] at
    [level]: the second hash input of every draw for its units. *)

val draw :
  Network.t ->
  seed:int ->
  slot:int ->
  level:int ->
  prefix:int ->
  id:int ->
  hosts:Network.host array ->
  taken:int ->
  skip_dead:bool ->
  int ->
  Network.host
(** [draw net ~seed ~slot ~level ~prefix ~id ~hosts ~taken ~skip_dead g]
    is the [g]-th admissible raw draw (counting from 0) of
    [hash3 (salt ~seed ~slot ~raw) (code ~level ~prefix) id mod H]. A
    draw is admissible when it misses every host of
    [hosts.(0 .. taken - 1)] — the unit's earlier copies, so the copies
    of a unit always sit on distinct hosts — and, with [skip_dead], when
    it lands on a live host. Raises [Failure] after 10 000 raw draws. *)

val redraw :
  Network.t ->
  seed:int ->
  slot:int ->
  level:int ->
  prefix:int ->
  id:int ->
  hosts:Network.host array ->
  taken:int ->
  int ->
  Network.host * int
(** [redraw net ~seed ~slot ~level ~prefix ~id ~hosts ~taken g] moves a
    copy off a dead host: the first live host among the admissible draws
    [g], [g + 1], ... of {!draw} (without [skip_dead]), with its
    generation. One walk over the raw draws finds it, so generation [G]
    costs O(G) hashes where stepping {!draw} through [g .. G] would cost
    O(G²). It makes the same draws as that stepping and raises the same
    [Failure] after the same 10 000 raw draws. *)

val first_live : Network.t -> Network.host array -> n:int -> Network.host
(** Failover: the first live host of [hosts.(0 .. n - 1)], or the dead
    [hosts.(0)] when none is live, so the session hop raises
    [Network.Host_dead] instead of silently reading a lost unit. *)

val read : Network.t -> Network.host array -> data:int -> slot:int -> Network.host
(** The cache read rule: cache slot [slot >= 1] reads copy
    [hosts.(data - 1 + slot)] when that host is live; slot 0, or a dead
    cache copy, falls back to {!first_live} over the [data] replicas. *)

val replica_slot : seed:int -> origin:int -> level:int -> k:int -> int
(** Which of [k] cached copies a query should read: a pure hash of
    [(seed, origin, level)] into [\[0, k)], so every query from the same
    originating element deterministically picks the same copy — runs are
    bit-identical for fixed parameters and independent of job count — while
    distinct origins spread across all [k] copies, splitting a hot range's
    load [k] ways. Always [0] when [k <= 1] (slot 0 is the primary), which
    is what makes an inactive cache byte-identical to no cache at all. *)

type repair_stats = {
  scanned : int;  (** stored units examined *)
  repaired : int;  (** copies re-homed *)
  messages : int;  (** steal messages: one per re-homed copy with a live source *)
  lost : int;  (** re-homed copies that had no surviving copy (0 when at most
                   r - 1 hosts fail between repairs) *)
}
(** One repair pass's bill. Repair is host-side maintenance: the bill is
    reported here, never pushed through the network's workload counters. *)

val no_repair : repair_stats

val bill : Network.t -> Network.host array -> n:int -> units:int -> repair_stats -> repair_stats
(** [bill net hosts ~n ~units st] adds one re-homed copy of [units] units
    to [st], for a unit whose copies were [hosts.(0 .. n - 1)] before the
    repair: a steal of [units] messages when any of them is live, [units]
    lost otherwise. *)
