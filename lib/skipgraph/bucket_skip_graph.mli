(** Bucket skip graphs (Aspnes–Kirsch–Krishnamurthy, PODC 2004) — Table 1
    row 5: fewer hosts than items.

    The key space is split into H contiguous buckets, one per host; hosts
    form a skip graph keyed by immutable bucket separators. A query routes
    through the host-level skip graph in O(log H) expected messages and
    finishes inside the destination bucket for free; per-host memory is the
    bucket payload plus the skip-graph pointers, i.e. O(n/H + log H).
    Inserts route the same way and occasionally split an overfull bucket
    onto a spare host (a host-level skip-graph join). *)

module Network = Skipweb_net.Network

type t

val create : net:Network.t -> seed:int -> keys:int array -> buckets:int -> t
(** Distribute the sorted keys over [buckets] contiguous buckets. The
    network must have at least [buckets] hosts; spare hosts are used by
    future splits. *)

val size : t -> int
(** Stored items. *)

val bucket_count : t -> int

type search_result = Skip_graph.search_result

val search : t -> rng:Skipweb_util.Prng.t -> int -> search_result
(** Nearest-neighbor query originating at a uniformly random bucket host. *)

val insert : t -> rng:Skipweb_util.Prng.t -> int -> int
(** Returns the message cost (routing + linking; splits included and
    amortized against the inserts that caused them). *)

val delete : t -> rng:Skipweb_util.Prng.t -> int -> int

val memory_per_host : t -> int list
val check_invariants : t -> unit
