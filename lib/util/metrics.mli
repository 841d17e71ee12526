(** A structured metrics registry: named counters and histograms, built on
    {!Stats.summary}, with JSON and CSV export.

    The bench harness and CLI use one registry per run to collect per-host
    traffic histograms, messages-per-op distributions (p50/p90/p99), and
    operation counters, then export them as a machine-readable block
    ([BENCH_*.json] / CSV) so cost shapes can be compared across PRs
    without re-parsing table output.

    Names are free-form; a registry keys entries by exact name and a name
    is permanently a counter or a histogram — mixing the two kinds under
    one name raises [Invalid_argument]. Export orders entries by name, so
    output is deterministic.

    Histograms keep every sample. A summary sorts a copy and folds it
    in sorted order through {!Stats.summarize}, so every exported figure
    is exact and depends only on the multiset of samples. Memory is
    eight bytes per sample. *)

type t

val create : unit -> t
val clear : t -> unit

(** {1 Recording} *)

val incr : t -> ?by:int -> string -> unit
(** Bump a counter (created at 0 on first use). *)

val observe : t -> string -> float -> unit
(** Add one sample to a histogram (created empty on first use). Raises
    [Invalid_argument] on NaN, which has no place in the sorted order. *)

val observe_int : t -> string -> int -> unit

(** {1 Reading} *)

val counter_value : t -> string -> int
(** Current value; 0 for a name never incremented. *)

val histogram_summary : t -> string -> Stats.summary option
(** Exact summary of a histogram's samples; [None] if absent or empty. *)

val names : t -> string list
(** All registered names, sorted. *)

(** {1 Export} *)

val to_json : t -> string
(** One JSON object: counters as numbers, histograms as
    [{count, mean, stddev, min, max, p50, p90, p99}] objects. *)

val to_csv : t -> string
(** Header plus one row per entry:
    [name,kind,value,count,mean,stddev,min,max,p50,p90,p99]. *)

val json_of_summary : Stats.summary -> string
(** A {!Stats.summary} as a JSON object (shared with the bench harness's
    metrics blocks). *)
