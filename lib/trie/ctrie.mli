(** Compressed digital tries over a fixed alphabet (§3.2).

    A node corresponds to a string (the characters on the path from the
    root); edges carry non-empty labels; chains are compressed so that each
    internal non-root node either stores a string (is terminal) or branches
    (has at least two children). The trie over [n] strings has O(n) nodes
    but may have Θ(n) depth — the skip-web hierarchy on top restores
    O(log n)-message searches.

    As a range-determined link structure: the range of a node [v] is the
    singleton containing the string leading to [v]; the range of an edge
    [(v, w)] is the set of strings [xy] where [x] leads to [v] and [y] is a
    prefix of the edge label (§2.1).

    For [T ⊆ S], every node string of [D(T)] is a node string of [D(S)]
    (branching points and terminals survive supersets), which is what makes
    skip-web refinement work: {!node_of_string} always finds the
    corresponding start node in the denser trie. *)

type t

type node

(** Where a search terminates. *)
type slot =
  | Exact  (** the located node's string equals the query *)
  | In_edge of { key : char; matched : int }
      (** the query diverges from (or exhausts inside) the edge starting
          with [key], after [matched] label characters *)
  | No_child of char  (** the node has no edge starting with this char *)

type location = { node : node; slot : slot }

val create : unit -> t

val of_sorted : string array -> t
(** Single-pass bulk build: lexicographically presort (a no-op when the
    input already arrives sorted and distinct), group by first character,
    build each group's compressed subtree in one left-to-right pass over
    its slice, then attach and id-number everything in a preorder commit.
    The resulting trie (node set, ids, child order) is a pure function of
    the distinct string set: bit-identical for any input permutation. *)

val build : string array -> t
(** Alias for {!of_sorted} — the bulk path {e is} the build path.
    Duplicates are ignored. The empty string is a valid key. *)

val size : t -> int
(** Number of stored strings. *)

val node_count : t -> int
val depth : t -> int
(** Longest root-to-node path in tree edges (compressed). *)

val max_string_depth : t -> int
(** Longest node string — the uncompressed depth, Θ(total length) for
    adversarial inputs. *)

(** {1 Nodes} *)

val root : t -> node
val node_id : node -> int
val node_string : node -> string
val subtree_size : node -> int
(** Number of stored strings at or below the node. *)

val node_of_string : t -> string -> node option

(** {1 Queries} *)

val locate : t -> string -> location * node list
(** Search from the root; returns the termination point and the node path
    (for message accounting). *)

val locate_from : t -> node -> string -> location * node list
(** Search starting at a node whose string is a prefix of the query — the
    skip-web refine step. *)

val mem : t -> string -> bool

val count_with_prefix : t -> string -> int
(** Number of stored strings having the query as a prefix — the paper's
    prefix query (e.g. all ISBNs of one publisher). *)

val longest_common_prefix : t -> string -> string
(** The longest prefix of the query that is a prefix of some stored
    string: "the first place where a query substring differs" (§3.2). *)

(** {1 Updates} *)

val insert : t -> string -> bool
(** [false] if already present. Creates O(1) nodes. *)

val remove : t -> string -> bool
(** Removes a string; splices redundant nodes. *)

val insert_delta : t -> string -> bool * int list * int list
(** Like {!insert}, additionally reporting [(changed, added, removed)]:
    the ids of the nodes the update created and destroyed. The skip-web
    hierarchy consumes the delta to adjust per-host memory charges in O(1)
    instead of re-enumerating {!iter_nodes}. *)

val remove_delta : t -> string -> bool * int list * int list
(** Like {!remove}, with the same delta report as {!insert_delta}. *)

val iter : t -> f:(string -> unit) -> unit
(** All stored strings in lexicographic order. *)

val check_invariants : t -> unit
(** Validates compression (no redundant chain nodes), label non-emptiness,
    child keying, sizes, parent pointers. Raises [Failure] on violation. *)

val iter_nodes : t -> f:(node -> unit) -> unit
(** Visit every node (including the root) — used by the skip-web hierarchy
    for host placement and memory accounting. *)

val strings_with_prefix : t -> string -> string list
(** All stored strings extending the query, lexicographically — the
    paper's "all titles by a certain publisher" query, in full. *)

val prefix_scan : t -> location -> string -> limit:int -> int * string list * int list
(** [prefix_scan t loc q ~limit] — where [loc] is a location for [q]
    (from {!locate} or the skip-web descent): the charged prefix query.
    Returns [(total, sample, visited_node_ids)]: the number of stored
    strings extending [q], up to [limit] of them in lexicographic order,
    and the ids of every node the collection walk enters (the prefix
    subtree's node first) — the ranges a distributed execution fetches.
    [(0, [], [])] when no stored string extends [q]. *)
