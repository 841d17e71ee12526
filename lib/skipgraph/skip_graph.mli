(** Skip graphs (Aspnes–Shah, SODA 2003) / SkipNet (Harvey et al.) — the
    baseline of Table 1 row 1 — and the level-list protocol core that the
    NoN skip graph ({!Non_skip_graph}) shares.

    Each element lives on its own host (H = n). Element [x] has an infinite
    random membership vector m(x); the level-ℓ lists partition the elements
    by the first ℓ bits of their vectors, each list sorted by key. An
    element keeps left/right neighbor pointers in each of its lists, which
    is O(log n) pointers in expectation.

    A search starts at the {e originating element's} own position and top
    level, moves as far as possible toward the target within each level,
    and drops a level when stuck — exactly the skip list search pattern,
    except that every host can be the entry point. Expected search and
    update cost O(log n) messages; memory and congestion O(log n).

    This implementation is array-backed: neighbor tables are built from the
    membership vectors once, and an insert or delete links or unlinks only
    its own element, level by level, with the same walk the insertion
    protocol bills ({!Level_lists.splice_in}). {e Message costs are counted
    per the distributed protocol} (each neighbor-to-neighbor hop that
    crosses hosts costs one message via {!Skipweb_net.Network}); CPU-time
    shortcuts never touch the message meter. *)

module Network = Skipweb_net.Network

type search_result = {
  predecessor : int option;
  successor : int option;
  nearest : int option;
  messages : int;
}
(** The answer every overlay baseline returns. *)

val answer : int -> pred:int option -> succ:int option -> messages:int -> search_result
(** [answer q ~pred ~succ ~messages]: the answer for [q] from its
    predecessor and successor, with the nearest key picked by
    {!Skipweb_linklist.Linklist.closest} (ties go to the predecessor). *)

val no_answer : search_result
(** The answer of an empty overlay: no keys and no messages. *)

module type S = sig
  type t

  val create : net:Network.t -> seed:int -> keys:int array -> t
  (** Build over distinct keys; element [i] in key order is placed on host
      [i] of [net] (which must have at least [Array.length keys] hosts, and
      at least one host). Charges per-host memory for keys and neighbor
      pointers. *)

  val size : t -> int

  val keys : t -> int array
  (** Current keys, ascending. *)

  val key : t -> int -> int
  (** Key of the element at sorted position [i]. *)

  val position : t -> int -> int
  (** Sorted position a key occupies or would occupy. *)

  val search : t -> from:int -> int -> search_result
  (** [search t ~from q] routes a nearest-neighbor query for [q] from the
      element with index [from] (its host's own entry point). *)

  val search_from_random : t -> rng:Skipweb_util.Prng.t -> int -> search_result

  val insert : t -> int -> int
  (** [insert t k] adds key [k]; returns the number of messages the
      distributed insertion protocol would send (search to position +
      linking in at every level + the rules' table refresh). Raises
      [Invalid_argument], before any change, if the key exists or the
      network has no host left for the element's fresh id (ids are never
      reused). *)

  val delete : t -> int -> int
  (** [delete t k] removes the key, returning the message cost (search +
      unlink at each level + the rules' table refresh). Raises
      [Invalid_argument] if absent. *)

  val host_of_index : t -> int -> Network.host

  val memory_per_host : t -> int list
  (** The per-host memory charges (for the M column). *)

  val check_invariants : t -> unit
  (** {!Level_lists.check_invariants}, and a charge held for exactly the
      live elements, each at its {!RULES.memory_units}. *)
end

(** What one overlay of the family decides; everything else is shared. *)
module type RULES = sig
  val name : string
  (** Prefixes error messages. *)

  val memory_units : Level_lists.t -> int -> int
  (** Units charged to the element at a position. *)

  val route :
    Level_lists.t ->
    from:int ->
    dir_right:bool ->
    admissible:(int -> bool) ->
    goto:(int -> unit) ->
    unit
  (** Walk from position [from] toward the target, calling [goto j] once per
      message, onto admissible positions only (keys not past the target). *)

  val refresh_messages : Level_lists.t -> int -> int
  (** Messages an update at a position sends beyond linking or unlinking,
      counted while the element is in the lists. *)
end

module Make (_ : RULES) : S

include S
