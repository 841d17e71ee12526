(** Placement policies: how a structure's nodes, links and ranges are
    assigned to hosts (§2.4 "Distributed Blocking", general case).

    A placement is a pure function from an abstract item index to a host.
    The improved contiguous blocking for one-dimensional data (§2.4.1) is
    more involved and lives with the blocked 1-d skip-web itself
    ({!Skipweb_core.Blocked1d}); the policies here cover the
    "arbitrary assignment, O(M) per host" general scheme and the baselines. *)

type t = int -> Network.host

val one_per_host : t
(** Item [i] lives on host [i] (the H = n regime of skip graphs). *)

val modulo : hosts:int -> t
(** Round robin: item [i] on host [i mod hosts]. Scatters consecutive items
    across hosts, the worst case for locality. *)

val chunked : chunk:int -> hosts:int -> t
(** Contiguous chunks: items [i*chunk .. (i+1)*chunk - 1] share a host,
    wrapping modulo [hosts]. Requires [chunk >= 1]. *)

val hashed : seed:int -> hosts:int -> t
(** Pseudo-random placement, deterministic in [seed]: the "arbitrary"
    assignment of §2.4. *)

val replica_slot : seed:int -> origin:int -> level:int -> k:int -> int
(** Which of [k] cached copies a query should read: a pure hash of
    [(seed, origin, level)] into [\[0, k)], so every query from the same
    originating element deterministically picks the same copy — runs are
    bit-identical for fixed parameters and independent of job count — while
    distinct origins spread across all [k] copies, splitting a hot range's
    load [k] ways. Always [0] when [k <= 1] (slot 0 is the primary), which
    is what makes an inactive cache byte-identical to no cache at all. *)

val charge_all : Network.t -> t -> items:int -> unit
(** Charge one memory unit to the owning host of each of [items] items. *)
