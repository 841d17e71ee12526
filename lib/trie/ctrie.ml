module Presort = Skipweb_util.Presort

type node = {
  mutable id : int;
      (* Mutable only for the bulk build's commit pass: slices build with
         a placeholder id and one preorder pass assigns the real ids. *)
  str : string;  (* the full string leading to this node *)
  mutable children : (char * edge) list;  (* sorted by key character *)
  mutable terminal : bool;
  mutable parent : node option;
  mutable size : int;  (* stored strings at or below this node *)
}

and edge = { label : string; target : node }

type t = {
  root : node;
  index : (string, node) Hashtbl.t;
  mutable next_id : int;
  mutable nstrings : int;
  mutable nnodes : int;
  (* Node churn log for the delta-reporting update API. *)
  mutable logging : bool;
  mutable added_log : int list;
  mutable removed_log : int list;
}

type slot = Exact | In_edge of { key : char; matched : int } | No_child of char

type location = { node : node; slot : slot }

let create () =
  let root =
    { id = 0; str = ""; children = []; terminal = false; parent = None; size = 0 }
  in
  let t =
    {
      root;
      index = Hashtbl.create 64;
      next_id = 1;
      nstrings = 0;
      nnodes = 1;
      logging = false;
      added_log = [];
      removed_log = [];
    }
  in
  Hashtbl.replace t.index "" root;
  t

let size t = t.nstrings
let node_count t = t.nnodes
let root t = t.root
let node_id n = n.id
let node_string n = n.str
let subtree_size n = n.size
let node_of_string t s = Hashtbl.find_opt t.index s

let fresh_node t ~str ~terminal =
  let n = { id = t.next_id; str; children = []; terminal; parent = None; size = 0 } in
  t.next_id <- t.next_id + 1;
  t.nnodes <- t.nnodes + 1;
  if t.logging then t.added_log <- n.id :: t.added_log;
  Hashtbl.replace t.index str n;
  n

let drop_node t n =
  Hashtbl.remove t.index n.str;
  t.nnodes <- t.nnodes - 1;
  if t.logging then t.removed_log <- n.id :: t.removed_log

let sorted_add children key edge =
  let rec go = function
    | [] -> [ (key, edge) ]
    | (k, _) :: _ as rest when key < k -> (key, edge) :: rest
    | pair :: rest -> pair :: go rest
  in
  go children

let set_child parent key edge =
  parent.children <- sorted_add (List.remove_assoc key parent.children) key edge;
  edge.target.parent <- Some parent

(* Longest common prefix length of [label] and the suffix of [q] starting
   at [off]. *)
let match_len label q off =
  let limit = min (String.length label) (String.length q - off) in
  let rec go k = if k < limit && label.[k] = q.[off + k] then go (k + 1) else k in
  go 0

let locate_raw start q =
  assert (String.length start.str <= String.length q);
  assert (String.sub q 0 (String.length start.str) = start.str);
  let rec desc v path =
    let path = v :: path in
    let off = String.length v.str in
    if off = String.length q then ({ node = v; slot = Exact }, List.rev path)
    else
      let c = q.[off] in
      match List.assoc_opt c v.children with
      | None -> ({ node = v; slot = No_child c }, List.rev path)
      | Some e ->
          let k = match_len e.label q off in
          if k = String.length e.label then desc e.target path
          else ({ node = v; slot = In_edge { key = c; matched = k } }, List.rev path)
  in
  desc start []

let locate_from _t start q = locate_raw start q

let locate t q = locate_raw t.root q

let mem t q =
  let loc, _ = locate t q in
  match loc.slot with Exact -> loc.node.terminal | In_edge _ | No_child _ -> false

(* If the query is a prefix of stored content, the node whose subtree holds
   exactly the strings extending it. *)
let prefix_subtree t q =
  let loc, _ = locate t q in
  match loc.slot with
  | Exact -> Some loc.node
  | In_edge { key; matched } ->
      let off = String.length loc.node.str in
      if off + matched = String.length q then
        (* q exhausted inside the edge: everything under the edge target
           extends q. *)
        let e = List.assoc key loc.node.children in
        Some e.target
      else None
  | No_child _ -> None

let count_with_prefix t q =
  match prefix_subtree t q with None -> 0 | Some n -> n.size

let longest_common_prefix t q =
  let loc, _ = locate t q in
  match loc.slot with
  | Exact -> q
  | No_child _ -> loc.node.str
  | In_edge { matched; _ } -> String.sub q 0 (String.length loc.node.str + matched)

let bump_sizes_from n delta =
  let rec go = function
    | None -> ()
    | Some v ->
        v.size <- v.size + delta;
        go v.parent
  in
  go (Some n)

let insert t q =
  let loc, _ = locate t q in
  let v = loc.node in
  let inserted =
    match loc.slot with
    | Exact ->
        if v.terminal then false
        else begin
          v.terminal <- true;
          bump_sizes_from v 1;
          true
        end
    | No_child _c ->
        let off = String.length v.str in
        let leaf = fresh_node t ~str:q ~terminal:true in
        leaf.size <- 1;
        set_child v q.[off] { label = String.sub q off (String.length q - off); target = leaf };
        bump_sizes_from v 1;
        true
    | In_edge { key; matched } ->
        let off = String.length v.str in
        let e = List.assoc key v.children in
        let w = e.target in
        (* Split the edge at [matched] characters. *)
        let mid_str = v.str ^ String.sub e.label 0 matched in
        let mid = fresh_node t ~str:mid_str ~terminal:false in
        mid.size <- w.size;
        let rest = String.sub e.label matched (String.length e.label - matched) in
        set_child v key { label = String.sub e.label 0 matched; target = mid };
        set_child mid rest.[0] { label = rest; target = w };
        if String.length q = String.length mid_str then mid.terminal <- true
        else begin
          let leaf = fresh_node t ~str:q ~terminal:true in
          leaf.size <- 1;
          let tail_off = off + matched in
          set_child mid q.[tail_off]
            { label = String.sub q tail_off (String.length q - tail_off); target = leaf }
        end;
        bump_sizes_from mid 1;
        true
  in
  if inserted then t.nstrings <- t.nstrings + 1;
  inserted

(* Merge a chain node: v (non-root, non-terminal, single child) disappears,
   its incoming and outgoing labels concatenate. *)
let splice t v =
  match (v.parent, v.children) with
  | Some parent, [ (_, out_edge) ] when (not v.terminal) && v.str <> "" ->
      let in_key = v.str.[String.length parent.str] in
      let in_edge = List.assoc in_key parent.children in
      assert (in_edge.target == v);
      set_child parent in_key { label = in_edge.label ^ out_edge.label; target = out_edge.target };
      drop_node t v
  | (Some _ | None), _ -> ()

let remove t q =
  match node_of_string t q with
  | None -> false
  | Some v when not v.terminal -> false
  | Some v ->
      v.terminal <- false;
      bump_sizes_from v (-1);
      (match (v.children, v.parent) with
      | [], Some parent ->
          (* Leaf: detach, then maybe splice the parent. *)
          let key = v.str.[String.length parent.str] in
          parent.children <- List.remove_assoc key parent.children;
          drop_node t v;
          splice t parent
      | [], None -> ()  (* empty-string key stored at the root *)
      | [ _ ], _ -> splice t v
      | _ :: _ :: _, _ -> ());
      t.nstrings <- t.nstrings - 1;
      true

(* Run one update with node-churn logging on, returning the ids of the
   nodes it created and destroyed (the O(1) range delta of §4). *)
let with_delta t op =
  t.logging <- true;
  t.added_log <- [];
  t.removed_log <- [];
  let changed = op () in
  t.logging <- false;
  let delta = (t.added_log, t.removed_log) in
  t.added_log <- [];
  t.removed_log <- [];
  (changed, delta)

let insert_delta t q =
  let changed, (added, removed) = with_delta t (fun () -> insert t q) in
  (changed, added, removed)

let remove_delta t q =
  let changed, (added, removed) = with_delta t (fun () -> remove t q) in
  (changed, added, removed)

(* ---------------- bulk build ----------------

   Lexicographic presort, group by first character, build each group's
   compressed subtree in one left-to-right pass over its slice
   (placeholder ids), then attach and id-number everything in one
   preorder commit — the quadtree's z-order scheme with "aligned cube"
   replaced by "common prefix". *)

let placeholder_id = -1

let make_node ~str ~terminal ~size =
  { id = placeholder_id; str; children = []; terminal; parent = None; size }

let lcp_len a b =
  let limit = min (String.length a) (String.length b) in
  let rec go k = if k < limit && a.[k] = b.[k] then go (k + 1) else k in
  go 0

(* Subtree over the sorted distinct slice [ss.(lo .. hi - 1)]: the node's
   string is the slice's longest common prefix (= lcp of its extremes,
   the slice being sorted), the node is terminal iff that prefix is
   itself in the slice (then necessarily first), and the children group
   by the character right after the prefix — contiguous and ascending in
   sorted order, so the child lists come out sorted for free. *)
let rec trie_slice ss lo hi =
  let first = ss.(lo) and last = ss.(hi - 1) in
  let l = lcp_len first last in
  let str = String.sub first 0 l in
  let terminal = String.length first = l in
  let node = make_node ~str ~terminal ~size:(hi - lo) in
  let start = if terminal then lo + 1 else lo in
  let rev_children = ref [] in
  let i = ref start in
  while !i < hi do
    let c = ss.(!i).[l] in
    let j = ref (!i + 1) in
    while !j < hi && ss.(!j).[l] = c do incr j done;
    let child = trie_slice ss !i !j in
    let label = String.sub child.str l (String.length child.str - l) in
    child.parent <- Some node;
    rev_children := (c, { label; target = child }) :: !rev_children;
    i := !j
  done;
  node.children <- List.rev !rev_children;
  node

(* Preorder id assignment + index publication: the sequential commit. *)
let commit_subtree t node =
  let rec go n =
    n.id <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.nnodes <- t.nnodes + 1;
    if t.logging then t.added_log <- n.id :: t.added_log;
    Hashtbl.replace t.index n.str n;
    List.iter (fun (_, e) -> go e.target) n.children
  in
  go node

let of_sorted strings =
  let ss = Presort.sorted_distinct ~cmp:String.compare strings in
  let t = create () in
  let n = Array.length ss in
  if n > 0 then begin
    (* An empty-string key lives on the root itself; every other key
       hangs under its first-character group. *)
    let start =
      if ss.(0) = "" then begin
        t.root.terminal <- true;
        1
      end
      else 0
    in
    let rev_groups = ref [] in
    let i = ref start in
    while !i < n do
      let c = ss.(!i).[0] in
      let j = ref (!i + 1) in
      while !j < n && ss.(!j).[0] = c do incr j done;
      rev_groups := (c, !i, !j) :: !rev_groups;
      i := !j
    done;
    t.root.children <-
      List.rev_map
        (fun (c, lo, hi) ->
          let top = trie_slice ss lo hi in
          (c, { label = top.str; target = top }))
        !rev_groups;
    List.iter
      (fun (_, e) ->
        e.target.parent <- Some t.root;
        commit_subtree t e.target)
      t.root.children;
    t.root.size <- n;
    t.nstrings <- n
  end;
  t

let build = of_sorted

let iter t ~f =
  let rec go n =
    if n.terminal then f n.str;
    List.iter (fun (_, e) -> go e.target) n.children
  in
  go t.root

let rec depth_node n =
  match n.children with
  | [] -> 0
  | cs -> 1 + List.fold_left (fun acc (_, e) -> max acc (depth_node e.target)) 0 cs

let depth t = depth_node t.root

let rec max_string_depth_node n =
  List.fold_left
    (fun acc (_, e) -> max acc (max_string_depth_node e.target))
    (String.length n.str) n.children

let max_string_depth t = max_string_depth_node t.root

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    let rec check_sorted = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
          if k1 >= k2 then fail "Ctrie: children not sorted";
          check_sorted rest
      | [ _ ] | [] -> ()
    in
    check_sorted n.children;
    if n.str <> "" && (not n.terminal) && List.length n.children < 2 then
      fail "Ctrie: redundant chain node %S" n.str;
    let child_sum = List.fold_left (fun acc (_, e) -> acc + e.target.size) 0 n.children in
    let expected = child_sum + if n.terminal then 1 else 0 in
    if n.size <> expected then fail "Ctrie: size %d <> %d at %S" n.size expected n.str;
    (match Hashtbl.find_opt t.index n.str with
    | Some m when m == n -> ()
    | Some _ | None -> fail "Ctrie: index out of sync at %S" n.str);
    List.iter
      (fun (k, e) ->
        if String.length e.label = 0 then fail "Ctrie: empty edge label";
        if e.label.[0] <> k then fail "Ctrie: child key mismatch";
        if e.target.str <> n.str ^ e.label then fail "Ctrie: string concatenation broken";
        (match e.target.parent with
        | Some p when p == n -> ()
        | Some _ | None -> fail "Ctrie: broken parent pointer");
        go e.target)
      n.children
  in
  go t.root;
  if t.root.size <> t.nstrings then fail "Ctrie: root size out of sync"

let iter_nodes t ~f =
  let rec go n =
    f n;
    List.iter (fun (_, e) -> go e.target) n.children
  in
  go t.root

let strings_with_prefix t q =
  match prefix_subtree t q with
  | None -> []
  | Some n ->
      let acc = ref [] in
      let rec walk m =
        if m.terminal then acc := m.str :: !acc;
        List.iter (fun (_, e) -> walk e.target) m.children
      in
      walk n;
      List.rev !acc

(* Charged prefix scan from an existing location for [q] (the skip-web
   descent's endpoint): resolve the prefix subtree without re-locating,
   take the total from its size field, collect up to [limit] strings in
   sorted order, and report the ids of every node the collection walk
   enters — the ranges a distributed execution fetches. Deterministic:
   child lists are sorted, so the visit sequence is a pure function of
   the stored set. *)
let prefix_scan _t loc q ~limit =
  if limit < 0 then invalid_arg "Ctrie.prefix_scan: limit >= 0";
  let sub =
    match loc.slot with
    | Exact -> Some loc.node
    | In_edge { key; matched } ->
        let off = String.length loc.node.str in
        if off + matched = String.length q then
          Some (List.assoc key loc.node.children).target
        else None
    | No_child _ -> None
  in
  match sub with
  | None -> (0, [], [])
  | Some n ->
      let rev_sample = ref [] in
      let taken = ref 0 in
      let rev_visited = ref [ n.id ] in
      let rec walk m =
        if m.terminal && !taken < limit then begin
          rev_sample := m.str :: !rev_sample;
          incr taken
        end;
        List.iter
          (fun (_, e) ->
            if !taken < limit then begin
              rev_visited := e.target.id :: !rev_visited;
              walk e.target
            end)
          m.children
      in
      if limit > 0 then walk n;
      (n.size, List.rev !rev_sample, List.rev !rev_visited)
