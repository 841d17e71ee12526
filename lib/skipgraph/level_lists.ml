module Membership = Skipweb_util.Membership
module O = Skipweb_util.Ordseq
module Linklist = Skipweb_linklist.Linklist

(* Keys and their parallel per-position ids are plain arrays, and a
   splice builds the next pair. That O(n) copy is no worse than what
   every update pays anyway: the height and neighbor caches below are
   whole-structure sweeps rebuilt on demand, and the baselines' memory
   recharge walks every element. *)
type t = {
  vecs : Membership.t;
  mutable xs : int array;  (* keys, ascending *)
  mutable ids : int array;  (* parallel stable ids, by position *)
  mutable next_id : int;
  mutable heights : int array option;  (* cache: top participating level per position *)
  mutable tables : (int array * int array) array option;
      (* cache: per level, (left, right) neighbor positions, -1 for none *)
}

let create ~seed ~keys =
  let xs = Array.copy keys in
  Array.sort compare xs;
  Array.iteri
    (fun i k -> if i > 0 && xs.(i - 1) = k then invalid_arg "Level_lists.create: duplicate keys")
    xs;
  let n = Array.length xs in
  {
    vecs = Membership.create ~seed;
    xs;
    ids = Array.init n Fun.id;
    next_id = n;
    heights = None;
    tables = None;
  }

let size t = Array.length t.xs
let key t i = t.xs.(i)
let id t i = t.ids.(i)
let keys t = Array.copy t.xs

let common_prefix t i j = Membership.common_prefix t.vecs (id t i) (id t j)

(* An element participates with neighbors at level L iff its L-bit prefix
   group still has at least two members; its top level is the deepest such
   L. Computed for all positions by recursive group splitting. *)
let compute_heights t =
  let n = size t in
  let h = Array.make n 0 in
  let rec split level members =
    match members with
    | [] | [ _ ] -> ()
    | _ :: _ :: _ ->
        List.iter (fun i -> h.(i) <- level) members;
        if level < 59 then begin
          let zeros, ones =
            List.partition (fun i -> not (Membership.bit t.vecs ~id:t.ids.(i) ~level)) members
          in
          split (level + 1) zeros;
          split (level + 1) ones
        end
  in
  split 0 (List.init n Fun.id);
  h

let heights t =
  match t.heights with
  | Some h -> h
  | None ->
      let h = compute_heights t in
      t.heights <- Some h;
      h

let top_level t i = (heights t).(i)

let levels t = Array.fold_left max 0 (heights t) + 1

(* Per-level doubly-linked lists materialized as arrays: one O(n) sweep per
   level, linking each element to the previous one sharing its prefix. *)
let neighbor_tables t =
  match t.tables with
  | Some tabs -> tabs
  | None ->
      let n = size t in
          let lv = levels t in
      let tabs =
        Array.init lv (fun level ->
            let left = Array.make n (-1) and right = Array.make n (-1) in
            let last = Hashtbl.create 64 in
            for i = 0 to n - 1 do
              let p = Membership.prefix t.vecs ~id:t.ids.(i) ~len:level in
              (match Hashtbl.find_opt last p with
              | Some j ->
                  left.(i) <- j;
                  right.(j) <- i
              | None -> ());
              Hashtbl.replace last p i
            done;
            (left, right))
      in
      t.tables <- Some tabs;
      tabs

(* No pair of elements shares a prefix of length >= levels (that would put
   both heights at that length), so levels outside the tables have no
   neighbors. *)
let right_neighbor t i level =
  let tabs = neighbor_tables t in
  if level < 0 || level >= Array.length tabs then None
  else
    let _, right = tabs.(level) in
    if right.(i) >= 0 then Some right.(i) else None

let left_neighbor t i level =
  let tabs = neighbor_tables t in
  if level < 0 || level >= Array.length tabs then None
  else
    let left, _ = tabs.(level) in
    if left.(i) >= 0 then Some left.(i) else None

let next_id t = t.next_id

let position t k = O.array_lower_bound t.xs k

let mem t k =
  let i = position t k in
  i < size t && t.xs.(i) = k

let splice_in t k =
  let pos = position t k in
  if pos < size t && t.xs.(pos) = k then invalid_arg "Level_lists.splice_in: duplicate key";
  t.xs <- O.array_insert_at t.xs pos k;
  t.ids <- O.array_insert_at t.ids pos t.next_id;
  t.next_id <- t.next_id + 1;
  t.heights <- None;
  t.tables <- None;
  pos

let splice_out t k =
  let pos = position t k in
  if pos >= size t || t.xs.(pos) <> k then invalid_arg "Level_lists.splice_out: absent key";
  t.xs <- O.array_remove_at t.xs pos;
  t.ids <- O.array_remove_at t.ids pos;
  t.heights <- None;
  t.tables <- None;
  pos

let predecessor t q = Linklist.predecessor t.xs q
let successor t q = Linklist.successor t.xs q

let check_invariants t =
  let n = size t in
  if Array.length t.ids <> n then failwith "Level_lists: ids length";
  for i = 1 to n - 1 do
    if t.xs.(i - 1) >= t.xs.(i) then failwith "Level_lists: keys not strictly increasing"
  done;
  let seen = Hashtbl.create n in
  Array.iter
    (fun id ->
      if Hashtbl.mem seen id then failwith "Level_lists: duplicate id";
      Hashtbl.add seen id ())
    t.ids;
  (* Neighbor symmetry at low levels. *)
  for i = 0 to n - 1 do
    for level = 0 to 3 do
      match right_neighbor t i level with
      | Some j -> (
          match left_neighbor t j level with
          | Some i' when i' = i -> ()
          | Some _ | None -> failwith "Level_lists: neighbor asymmetry")
      | None -> ()
    done
  done
