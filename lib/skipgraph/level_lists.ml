module Membership = Skipweb_util.Membership
module O = Skipweb_util.Ordseq
module Linklist = Skipweb_linklist.Linklist

(* Keys, ids, heights and the per-level neighbor tables are plain arrays
   indexed by position, and a splice copies each into one with the slot
   opened or closed: O(n · levels) host work, which the message model never
   sees. *)
type t = {
  vecs : Membership.t;
  mutable xs : int array;  (* keys, ascending *)
  mutable ids : int array;  (* parallel stable ids, by position *)
  mutable next_id : int;
  mutable heights : int array;  (* top participating level per position *)
  mutable left : int array array;  (* per level, left neighbor positions, -1 for none *)
  mutable right : int array array;  (* per level, right neighbor positions *)
}

(* Membership.prefix takes fewer than 60 bits, so no level goes past 59. *)
let max_level = 59

(* The heights and per-level lists from scratch, for [create] and as the
   reference of [check_invariants]: one sweep per level links each element
   to the previous one sharing its prefix, until a level links none. An
   element's height is the deepest level at which it has a neighbor. *)
let sweep vecs ids =
  let n = Array.length ids in
  let heights = Array.make n 0 in
  let rec build level tables =
    let left = Array.make n (-1) and right = Array.make n (-1) and last = Hashtbl.create 64 in
    Array.iteri
      (fun i id ->
        let p = Membership.prefix vecs ~id ~len:level in
        Option.iter
          (fun j ->
            left.(i) <- j;
            right.(j) <- i;
            heights.(i) <- level;
            heights.(j) <- level)
          (Hashtbl.find_opt last p);
        Hashtbl.replace last p i)
      ids;
    if level > 0 && Array.for_all (fun j -> j < 0) right then tables
    else if level = max_level then (left, right) :: tables
    else build (level + 1) ((left, right) :: tables)
  in
  let tables = Array.of_list (List.rev (build 0 [])) in
  (heights, Array.map fst tables, Array.map snd tables)

let create ~seed ~keys =
  let xs = Array.copy keys in
  Array.sort compare xs;
  Array.iteri
    (fun i k -> if i > 0 && xs.(i - 1) = k then invalid_arg "Level_lists.create: duplicate keys")
    xs;
  let n = Array.length xs in
  let vecs = Membership.create ~seed in
  let ids = Array.init n Fun.id in
  let heights, left, right = sweep vecs ids in
  { vecs; xs; ids; next_id = n; heights; left; right }

let size t = Array.length t.xs
let key t i = t.xs.(i)
let id t i = t.ids.(i)
let keys t = Array.copy t.xs

let common_prefix t i j = Membership.common_prefix t.vecs (id t i) (id t j)

let top_level t i = t.heights.(i)

let levels t = Array.length t.left

(* No pair of elements shares a prefix of length >= levels (that would put
   both heights at that length), so levels outside the tables have no
   neighbors. *)
let neighbor tabs i level =
  if level < 0 || level >= Array.length tabs then None
  else
    let j = tabs.(level).(i) in
    if j >= 0 then Some j else None

let right_neighbor t i level = neighbor t.right i level
let left_neighbor t i level = neighbor t.left i level

let next_id t = t.next_id

let position t k = O.array_lower_bound t.xs k

let mem t k =
  let i = position t k in
  i < size t && t.xs.(i) = k

(* Copies of a neighbor table with an empty slot opened at [pos], or with
   slot [pos] (which no entry names) closed; the positions past it move. *)
let open_slot a pos =
  Array.init (Array.length a + 1) (fun i ->
      if i = pos then -1
      else
        let j = a.(if i < pos then i else i - 1) in
        if j >= pos then j + 1 else j)

let close_slot a pos =
  Array.init (Array.length a - 1) (fun i ->
      let j = a.(if i < pos then i else i + 1) in
      if j > pos then j - 1 else j)

(* The bottom-up linking phase of the insertion protocol, which also counts
   its messages: 2 at level 0, and per level above, 2 plus one per element
   the walk passes. *)
let splice_in t k =
  let pos = position t k in
  if pos < size t && t.xs.(pos) = k then invalid_arg "Level_lists.splice_in: duplicate key";
  t.xs <- O.array_insert_at t.xs pos k;
  t.ids <- O.array_insert_at t.ids pos t.next_id;
  t.next_id <- t.next_id + 1;
  t.heights <- O.array_insert_at t.heights pos 0;
  t.left <- Array.map (fun a -> open_slot a pos) t.left;
  t.right <- Array.map (fun a -> open_slot a pos) t.right;
  let link level l r =
    if level = levels t then begin
      t.left <- Array.append t.left [| Array.make (size t) (-1) |];
      t.right <- Array.append t.right [| Array.make (size t) (-1) |]
    end;
    t.left.(level).(pos) <- l;
    t.right.(level).(pos) <- r;
    if l >= 0 then t.right.(level).(l) <- pos;
    if r >= 0 then t.left.(level).(r) <- pos;
    List.iter (fun j -> if j >= 0 then t.heights.(j) <- max t.heights.(j) level) [ pos; l; r ]
  in
  link 0 (pos - 1) (if pos + 1 < size t then pos + 1 else -1);
  (* Along [tab] from [pos], skip elements not sharing [level] bits:
     (elements passed, the first that does or -1). *)
  let rec walk tab level j steps =
    if j < 0 || common_prefix t pos j >= level then (steps, j)
    else walk tab level tab.(j) (steps + 1)
  in
  let rec up level msgs =
    let side tabs = walk tabs.(level - 1) level tabs.(level - 1).(pos) 0 in
    let (lsteps, l), (rsteps, r) = (side t.left, side t.right) in
    if level > max_level || (l < 0 && r < 0) then msgs
    else begin
      link level l r;
      up (level + 1) (msgs + lsteps + rsteps + 2)
    end
  in
  (pos, up 1 2)

(* Unlinking runs from the element's top level down. A neighbor left alone
   at level L no longer shares an L-bit prefix with anyone, so its height
   drops to L - 1; going down, the lowest such level is the last write. *)
let splice_out t k =
  let pos = position t k in
  if pos >= size t || t.xs.(pos) <> k then invalid_arg "Level_lists.splice_out: absent key";
  for level = t.heights.(pos) downto 0 do
    let left = t.left.(level) and right = t.right.(level) in
    let l = left.(pos) and r = right.(pos) in
    if l >= 0 then right.(l) <- r;
    if r >= 0 then left.(r) <- l;
    List.iter
      (fun j -> if j >= 0 && left.(j) < 0 && right.(j) < 0 then t.heights.(j) <- max 0 (level - 1))
      [ l; r ]
  done;
  t.xs <- O.array_remove_at t.xs pos;
  t.ids <- O.array_remove_at t.ids pos;
  t.heights <- O.array_remove_at t.heights pos;
  let levels = Array.fold_left max 0 t.heights + 1 in
  t.left <- Array.init levels (fun level -> close_slot t.left.(level) pos);
  t.right <- Array.init levels (fun level -> close_slot t.right.(level) pos);
  pos

let predecessor t q = Linklist.predecessor t.xs q
let successor t q = Linklist.successor t.xs q

let check_invariants t =
  let n = size t in
  if Array.length t.ids <> n then failwith "Level_lists: ids length";
  for i = 1 to n - 1 do
    if t.xs.(i - 1) >= t.xs.(i) then failwith "Level_lists: keys not strictly increasing"
  done;
  let ids = List.sort_uniq compare (Array.to_list t.ids) in
  if List.length ids <> n || List.exists (fun id -> id >= t.next_id) ids then
    failwith "Level_lists: duplicate or unissued ids";
  let heights, left, right = sweep t.vecs t.ids in
  if heights <> t.heights then failwith "Level_lists: heights disagree with a fresh sweep";
  if left <> t.left || right <> t.right then
    failwith "Level_lists: neighbor tables disagree with a fresh sweep"
