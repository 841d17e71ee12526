(** The contract a data structure must satisfy to be skip-webbed (§2.1–2.2
    of the paper, in operational form).

    A {e range-determined link structure} [D(S)] is a deterministic
    structure of nodes and links over a ground set [S], where every node
    and link carries a range (a subset of the universe) and incidences are
    range intersections. The skip-web framework additionally needs:

    - {b canonicity}: [D(S)] depends only on the set [S] (paper: "a unique
      link structure");
    - {b the subset-node property}: for [T ⊆ S], the location of a query
      in [D(T)] can be mapped to a starting point in [D(S)] from which the
      search continues — concretely, the maximal range containing the query
      in [D(T)] corresponds (via {!describe}/{!refine}) to a range of
      [D(S)] whose conflict neighborhood contains the answer;
    - {b a set-halving lemma} (§2.2): when [T] is a random half of [S],
      continuing the search in [D(S)] from a [D(T)] location touches O(1)
      ranges in expectation. The framework does not consume the lemma as
      code — it is what makes the measured costs logarithmic, and the
      lemma experiments (E8–E11) validate it per structure.

    Visited-range accounting: [locate] and [refine] return the integer ids
    of every node/link the search inspects, in order, and [refine_path]
    hands over the same lists, level by level. The hierarchy maps
    each id to a host and charges one message per host boundary crossed, so
    a structure implementation must report honest visit sequences even when
    it takes CPU shortcuts.

    Update accounting: [insert] and [remove] return a {!range_delta} — the
    ids of the O(1) ranges they created and destroyed. The hierarchy uses
    the delta to adjust per-host memory charges incrementally instead of
    re-enumerating the live ranges with [iter_range_ids] (which would make
    every update O(n) host-side), so deltas must be exact: after an update,
    the previously charged set plus [added] minus [removed] must equal the
    ids [iter_range_ids] enumerates. They are the only updates an instance
    supplies: the hierarchy applies a batch one key at a time, as §4 bills
    it, and charges each key's delta as it comes.

    Domain confinement (the parallel write path): with a pool, the
    hierarchy's builds and batch updates run one task per level on
    different OCaml domains, and each task builds and mutates that level's
    structures. No structure ever sees the pool itself: every operation
    below runs on the calling domain. An implementation must still keep
    {e all} of its mutable state —
    including any range-id counter — inside its [t] values: a module-level
    counter or cache shared between instances would race across domains
    and, worse, make range ids depend on scheduling, breaking the
    bit-identical-to-sequential guarantee. Determinism within one instance
    is already required by canonicity; this extends it to "no hidden
    coupling between instances". *)

type range_delta = { added : int list; removed : int list }
(** Range ids created / destroyed by one update. An instance may issue an
    id again once it is dead ([Ints] does: its codes are ranks), so what
    holds is per update: the two lists are disjoint, and every [added] id
    was not live before the update. *)

let empty_delta = { added = []; removed = [] }

module type S = sig
  type key
  type query
  type answer

  type t
  (** A mutable instance of the structure over one level set. *)

  type loc
  (** A located maximal range for some query. *)

  type descriptor
  (** A portable description of a located range, meaningful to the
      structure built over any superset (e.g. a quadtree cube, a trie node
      string, a trapezoid). *)

  val name : string

  val visit_label : string
  (** Short tag for traced range-walk hops of this structure (e.g.
      ["list-walk"], ["cube-walk"]): names the kind of pointer a hop
      chased, so a rendered trace distinguishes structure walks from
      hierarchy descents. Must be a constant — it is attached to hops on
      the traced path only and must not cost allocation per hop. *)

  val build : key array -> t
  (** Canonical build; duplicates are ignored. Must accept the empty
      array: the hierarchy keeps one empty instance per functor
      application in the slots no element reaches. *)

  val size : t -> int
  (** Number of keys currently stored, in O(1): a descent reads the size
      of every set on its path in one pass before it searches any. *)

  val storage_units : t -> int
  (** Nodes + links currently allocated — what a host pays to store a piece
      of this structure. *)

  val iter_range_ids : t -> f:(int -> unit) -> unit
  (** Call [f] once on the id of every live range (for host placement,
      memory accounting and repair), in any order and without building a
      list: the hierarchy's repair pass walks every range of every level
      set through this. *)

  val insert : t -> key -> range_delta
  (** Add a key (no-op on duplicates, returning {!empty_delta}). Creates
      O(1) new ranges for the structures of this repository; the delta
      reports exactly which. A key the structure rejects raises
      [Invalid_argument] and leaves the set as it was; a trapezoidal map
      rejects a stored segment that way, since its abscissas are taken. *)

  val remove : t -> key -> range_delta
  (** Delete a key (no-op if absent, returning {!empty_delta}). Raises
      [Failure] for structures whose deletions are out of scope
      (trapezoidal maps, per §4's hedge). *)

  val probe : key -> query
  (** A query that routes to the place a key occupies (or would occupy) —
      the locate step of an update (§4). *)

  val order : query array -> int array
  (** The structure's own order on a batch of queries: a permutation
      listing every index once, the queries non-decreasing in the order
      the structure lays its keys out in (rank, z-order,
      lexicographic), equal queries in index order. Queries walked in
      this order run down nearby paths one after another, and keys
      built in it ([order (Array.map probe keys)]) reach {!build}
      already sorted, so its presort is one pass. It is a hint: each
      query's walk and each built set must be the same in any order,
      and only the wall clock may depend on it, so a structure with no
      such order returns the identity. It must be total: a query or
      probe the structure rejects gets a place too, and is rejected by
      the operation that reads it, with that operation's message. *)

  val locate : t -> query -> loc * int list
  (** Search from the structure's root: the maximal range containing the
      query, plus the visited range ids in order. A query the instance
      cannot search (a point of another dimension) raises
      [Invalid_argument]; the hierarchy locates in its top level before it
      opens a network session, so such a query sends no message. *)

  val refine : t -> from:descriptor -> query -> loc * int list
  (** Continue a search in this structure given the location the query had
      in the structure over a {e subset} of this structure's keys. The
      subset-node property guarantees the descriptor maps into this
      structure. Returns the location here and the visited ids. *)

  val describe : t -> loc -> descriptor

  val refine_path : t array -> loc -> query -> f:(int -> int list -> unit) -> loc
  (** [refine_path sets loc q ~f] runs the refinements of one descent:
      [sets.(l)] is the level-[l] set on one membership path (level 0
      first, each a superset of the one above), and [loc] is where [q]
      lies in the top set, [sets.(Array.length sets - 1)]. It calls
      [f l visited] once for every level [l] below the top, from the top
      down, with the ids the refinement at [l] visits, and returns the
      level-0 location. The result and every [visited] list must be those
      of the chain [refine sets.(l) ~from:(describe sets.(l + 1) loc) q];
      only the work behind them may differ. {!sequential_refine_path} is
      that chain; an instance whose refinement needs only the query may
      search all levels at once instead. *)

  val answer : t -> loc -> query -> answer
  (** Extract the final answer at level 0. *)

  type scan
  (** A multi-result query over the level-0 structure — an axis-aligned
      range count, a k-nearest-neighbors request, a prefix enumeration:
      whatever surfaces the instance supports beyond point location. *)

  type scan_answer
  (** What a scan returns (counts, samples, neighbor lists...). *)

  val scan_probe : scan -> query
  (** The point query whose skip-web descent positions the scan: the
      hierarchy locates [scan_probe s] down to level 0 and hands the
      resulting location to {!scan}. *)

  val scan : t -> loc -> scan -> scan_answer * int list
  (** Execute the scan in the level-0 structure starting from the located
      range of {!scan_probe}, returning the answer together with the ids
      of every range the scan walk visits beyond the descent itself (the
      descent's own visits are already charged by the hierarchy). The
      hierarchy maps each id to its host and charges messages exactly as
      for locate/refine visits, so the list must be honest even when the
      walk takes CPU shortcuts. Deterministic: a pure function of the
      structure, the location and the scan. *)
end

(** The chain {!S.refine_path} stands for, one level after another:
    [describe] the location above, [refine] from it, then [f]. *)
let sequential_refine_path ~describe ~refine sets loc q ~f =
  let rec go level loc =
    if level < 0 then loc
    else begin
      let loc', visited = refine sets.(level) ~from:(describe sets.(level + 1) loc) q in
      f level visited;
      go (level - 1) loc'
    end
  in
  go (Array.length sets - 2) loc
