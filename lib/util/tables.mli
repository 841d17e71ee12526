(** Fixed-width ASCII table rendering for benchmark reports.

    The bench harness prints one table per reproduced paper artifact
    (Table 1 rows, lemma validations, theorem sweeps); this module keeps
    that output aligned and uniform. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val render : t -> string
(** Render with a title line, a header, separators, and right-aligned
    numeric-looking cells. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val cell_float : ?decimals:int -> float -> string
