(** The congestion observatory: where does a workload's load land?

    {!Trace} answers "where did {e one} operation's messages go"; the
    observatory answers "where does a {e workload's} load go" — which
    hosts the upper levels of a skip structure concentrate traffic on
    and how unequal the per-host load is (percentiles and Gini).

    Every reader here is a pure, stateless read of the exact per-host
    traffic counters {!Network} already keeps: run a phase, then read.
    Nothing is fed, sampled or estimated, so every number is exact and,
    because the counters are order-independent sums, identical for any
    [--jobs] count. Per-level attribution of the same load is a
    {!Trace} concern: pass one shared trace to every sampled operation
    and read {!Trace.per_level_hops}. *)

type congestion = {
  live : int;
  total_traffic : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  gini : float;
}

val gini : float array -> float
(** Gini coefficient of a non-negative load vector: 0 = perfectly even,
    approaching 1 = everything on one element. 0 for empty or all-zero
    input. *)

val congestion_of : Network.t -> congestion
(** Percentiles and Gini of per-host traffic over {e live} hosts — the
    congestion-flattening chart's y-axis. *)

val congestion_to_json : congestion -> string

val hot_hosts : Network.t -> k:int -> (Network.host * int) list
(** The [k] busiest {e live} hosts as [(host, visits)], by descending
    visits with ties broken by ascending host: exactly the first [k]
    entries of a full sort of the live hosts' counters, selected in
    O(H log k). Returns every live host when [k] exceeds their number.
    Requires [k >= 1]. *)

val top_share : Network.t -> m:int -> float
(** Fraction of all live-host traffic served by the [m] busiest live
    hosts ({!hot_hosts} [~k:m]), in [\[0, 1\]] (0 when there is no
    traffic). The replica-aware congestion view: caching the upper
    levels across [k] hosts leaves total traffic unchanged and divides
    the hottest hosts' share by [k], so this is the ratio the E20
    serving bench shows flattening. Requires [m >= 1]. *)
