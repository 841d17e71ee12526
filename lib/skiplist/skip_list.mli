(** Classic randomized skip lists (Pugh 1990) — the sequential ancestor of
    skip graphs, SkipNet and skip-webs, and the structure of the paper's
    Figure 1.

    Each element appears in the bottom-level list; a node at one level is
    copied to the next with probability 1/2. A search starts at the top
    level and proceeds rightwards as far as possible before dropping a
    level. Expected search cost is O(log n), expected space O(n).

    This module provides the sequential dictionary used by examples and as
    the ground truth oracle in tests, instrumented to expose search path
    lengths and tower heights for the Figure 1 experiment (E15). *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (Ord : ORDERED) : sig
  type key = Ord.t
  type 'a t

  val create : ?max_level:int -> seed:int -> unit -> 'a t
  (** An empty skip list. [max_level] caps tower heights (default 32). *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val insert : 'a t -> key -> 'a -> unit
  (** Insert or replace the binding of a key. *)

  val remove : 'a t -> key -> bool
  (** [remove t k] deletes [k]'s binding; returns whether it was present. *)

  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  val predecessor : 'a t -> key -> (key * 'a) option
  (** Greatest binding with key [<=] the argument. *)

  val successor : 'a t -> key -> (key * 'a) option
  (** Least binding with key [>=] the argument. *)

  val nearest : 'a t -> key -> (key * 'a) option
  (** The predecessor if one exists, else the successor: [Ord] gives no
      distance, so a caller with a metric compares {!predecessor} and
      {!successor} itself. *)

  val to_list : 'a t -> (key * 'a) list
  (** Bindings in ascending key order. *)

  val iter : 'a t -> f:(key -> 'a -> unit) -> unit

  (** {1 Instrumentation (Figure 1 / E15)} *)

  val height : 'a t -> int
  (** Number of non-empty levels. *)

  val tower_height : 'a t -> key -> int option
  (** Height of the tower of a present key. *)

  val search_cost : 'a t -> key -> int
  (** Number of pointer traversals performed by a search for [k] (the
      sequential analogue of message count). *)

  val check_invariants : 'a t -> unit
  (** Raises [Failure] if sortedness or tower structure is violated. Used by
      property tests. *)
end

module Int : module type of Make (struct
  type t = int

  let compare = Stdlib.compare
  let to_string = string_of_int
end)
