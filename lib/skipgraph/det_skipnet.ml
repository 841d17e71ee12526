module Network = Skipweb_net.Network
module O = Skipweb_util.Ordseq

(* Element ids double as hosts; id 0 is reserved for the -infinity header
   sentinel, which participates in every level.

   Keys, heights and ids are parallel plain arrays: promotions and
   demotions are in-place writes, and a splice copies all three. The
   copy is no worse than the rest of an update, which already scans the
   height array linearly in [height], [next_at] and the gap walks. *)
type t = {
  net : Network.t;
  mutable xs : int array;  (* keys, ascending *)
  mutable hs : int array;  (* heights >= 1, by position *)
  mutable ids : int array;  (* host ids, by position *)
  mutable next_id : int;
  charged : (int, int) Hashtbl.t;
}

let header_host = 0

let size t = Array.length t.xs

let height t = Array.fold_left max 1 t.hs

let memory_units h = 2 + (2 * h)

let recharge_one t i =
  let id = t.ids.(i) in
  let want = memory_units t.hs.(i) in
  let have = try Hashtbl.find t.charged id with Not_found -> 0 in
  if want <> have then begin
    Network.charge_memory t.net id (want - have);
    Hashtbl.replace t.charged id want
  end

(* Deterministic bulk build: promote every second element of each level
   list until at most three remain — all gaps are 1 and boundary gaps at
   most 1, satisfying the 1-2-3 invariant. *)
let assign_heights n =
  let hs = Array.make n 1 in
  let rec promote level members =
    if List.length members > 3 then begin
      let promoted = List.filteri (fun idx _ -> idx mod 2 = 1) members in
      List.iter (fun i -> hs.(i) <- level + 1) promoted;
      promote (level + 1) promoted
    end
  in
  promote 1 (List.init n Fun.id);
  hs

let create ~net ~keys =
  let xs = Array.copy keys in
  Array.sort compare xs;
  Array.iteri
    (fun i k -> if i > 0 && xs.(i - 1) = k then invalid_arg "Det_skipnet.create: duplicate keys")
    xs;
  let n = Array.length xs in
  if n + 1 > Network.host_count net then invalid_arg "Det_skipnet.create: not enough hosts";
  let t =
    {
      net;
      xs;
      hs = assign_heights n;
      ids = Array.init n (fun i -> i + 1);
      next_id = n + 1;
      charged = Hashtbl.create (2 * n);
    }
  in
  for i = 0 to n - 1 do
    recharge_one t i
  done;
  (* The header stores one pointer per level. *)
  Network.charge_memory net header_host (height t + 1);
  t

(* Next member of the level-h list strictly right of position [i]
   (i = -1 means the header). *)
let next_at t i h =
  let n = size t in
  let rec go j = if j >= n then None else if t.hs.(j) >= h then Some j else go (j + 1) in
  go (i + 1)

type search_result = Skip_graph.search_result

(* Top-down search; returns the bottom-level predecessor position (-1 if
   none) and runs inside the given session for message accounting. *)
let descend t session q ~stop_level =
  let cur = ref (-1) in
  Network.goto session header_host;
  let h = ref (height t) in
  while !h >= stop_level do
    let continue = ref true in
    while !continue do
      match next_at t !cur !h with
      | Some j when t.xs.(j) <= q ->
          cur := j;
          Network.goto session t.ids.(j)
      | Some _ | None -> continue := false
    done;
    decr h
  done;
  !cur

let search t ~from q =
  if size t = 0 then Skip_graph.no_answer
  else begin
    let session = Network.start t.net from in
    let pos = descend t session q ~stop_level:1 in
    Network.finish session;
    let pred = if pos >= 0 then Some t.xs.(pos) else None in
    let succ =
      if pos >= 0 && t.xs.(pos) = q then Some q
      else if pos + 1 < size t then Some t.xs.(pos + 1)
      else None
    in
    Skip_graph.answer q ~pred ~succ ~messages:(Network.messages session)
  end

(* Positions of the nearest elements taller than [h] on either side of
   position [p]: the boundaries of p's gap in the level-h list. *)
let gap_bounds t p h =
  let n = size t in
  let rec left j = if j < 0 then -1 else if t.hs.(j) > h then j else left (j - 1) in
  let rec right j = if j >= n then n else if t.hs.(j) > h then j else right (j + 1) in
  (left (p - 1), right (p + 1))

let gap_members t l r h =
  let acc = ref [] in
  for j = r - 1 downto l + 1 do
    if t.hs.(j) >= h then acc := j :: !acc
  done;
  !acc

let insert t k =
  if t.next_id >= Network.host_count t.net then invalid_arg "Det_skipnet.insert: no spare host";
  let n = size t in
  let pos = O.array_lower_bound t.xs k in
  if pos < n && t.xs.(pos) = k then invalid_arg "Det_skipnet.insert: duplicate key";
  (* Locate: a full search paid by the inserting host. *)
  let session = Network.start t.net header_host in
  let _ = descend t session k ~stop_level:1 in
  Network.finish session;
  let locate_cost = Network.messages session in
  (* Splice in at height 1. *)
  t.xs <- O.array_insert_at t.xs pos k;
  t.hs <- O.array_insert_at t.hs pos 1;
  t.ids <- O.array_insert_at t.ids pos t.next_id;
  t.next_id <- t.next_id + 1;
  recharge_one t pos;
  (* Linking at level 1. *)
  let msgs = ref (locate_cost + 2) in
  (* Restore the 1-2-3 invariant bottom-up; each promotion is located by a
     fresh partial search from the top (no parent pointers), which is the
     source of the O(log^2 n) worst-case update cost. *)
  let rec fixup p h =
    let l, r = gap_bounds t p h in
    let members = gap_members t l r h in
    if List.length members >= 4 then begin
      let promoted = List.nth members (List.length members / 2) in
      t.hs.(promoted) <- h + 1;
      recharge_one t promoted;
      (* Partial search to level h+1 to find the gap, then scan and link. *)
      let s = Network.start t.net header_host in
      let _ = descend t s t.xs.(promoted) ~stop_level:(min (height t) (h + 1)) in
      Network.finish s;
      msgs := !msgs + Network.messages s + List.length members + 2;
      fixup promoted (h + 1)
    end
  in
  fixup pos 1;
  (* Keep the header charged for any new level. *)
  let top = height t in
  let have = Network.memory t.net header_host in
  if have < top + 1 then Network.charge_memory t.net header_host (top + 1 - have);
  !msgs


(* Deletion restores the 1-2-3 invariant in two phases. Removing an element
   of height h0 (a) merges the two gaps it separated at every level below
   h0 — merged gaps can overflow to up to six members and are re-split by a
   promotion — and (b) shrinks the gap it was a member of at level h0,
   which can underflow to zero. An empty interior gap is repaired like a
   B-tree: borrow through the adjacent parent key if its sibling gap can
   spare a member, otherwise demote the parent key (a merge) and recurse
   one level up. Each structural step is located by a partial search from
   the top, as in insertion. *)
let delete t k =
  let n = size t in
  let pos = O.array_lower_bound t.xs k in
  if pos >= n || t.xs.(pos) <> k then invalid_arg "Det_skipnet.delete: absent key";
  let session = Network.start t.net header_host in
  let _ = descend t session k ~stop_level:1 in
  Network.finish session;
  let msgs = ref (Network.messages session) in
  let h0 = t.hs.(pos) in
  (* Unlink at each of its levels. *)
  msgs := !msgs + (2 * h0);
  let victim_id = t.ids.(pos) in
  (match Hashtbl.find_opt t.charged victim_id with
  | Some units ->
      Network.charge_memory t.net victim_id (-units);
      Hashtbl.remove t.charged victim_id
  | None -> ());
  t.xs <- O.array_remove_at t.xs pos;
  t.hs <- O.array_remove_at t.hs pos;
  t.ids <- O.array_remove_at t.ids pos;
  let nn = size t in
  let left_boundary around h =
    let rec go j = if j < 0 then -1 else if t.hs.(j) > h then j else go (j - 1) in
    go (min (nn - 1) (around - 1))
  in
  let right_boundary around h =
    let rec go j = if j >= nn then nn else if t.hs.(j) > h then j else go (j + 1) in
    go (max 0 around)
  in
  let members_between l r h =
    let acc = ref [] in
    for j = min (nn - 1) (r - 1) downto max 0 (l + 1) do
      if t.hs.(j) = h then acc := j :: !acc
    done;
    !acc
  in
  let partial_search_cost key stop =
    let s = Network.start t.net header_host in
    let _ = descend t s key ~stop_level:(min (height t) (max 1 stop)) in
    Network.finish s;
    Network.messages s
  in
  (* Phase (a): re-split overflowing merged gaps at levels below h0. *)
  let rec fix_overflow around h =
    if h <= height t then begin
      let l = left_boundary around h and r = right_boundary around h in
      let members = members_between l r h in
      if List.length members >= 4 then begin
        let promoted = List.nth members (List.length members / 2) in
        t.hs.(promoted) <- h + 1;
        recharge_one t promoted;
        msgs :=
          !msgs + partial_search_cost t.xs.(promoted) (h + 1) + List.length members + 2;
        fix_overflow promoted (h + 1)
      end
    end
  in
  for h = 1 to h0 - 1 do
    fix_overflow pos h
  done;
  (* Phase (b): repair a possibly-empty interior gap at h0 and above. *)
  let rec repair around h =
    if h <= height t then begin
      let l = left_boundary around h and r = right_boundary around h in
      let interior = l >= 0 && r < nn in
      if interior && members_between l r h = [] then begin
        if t.hs.(r) = h + 1 then begin
          let r2 = right_boundary (r + 1) h in
          (match members_between r r2 h with
          | m :: _ :: _ ->
              (* Borrow through r: r drops into our gap, m replaces it. *)
              t.hs.(r) <- h;
              t.hs.(m) <- h + 1;
              recharge_one t r;
              recharge_one t m;
              msgs := !msgs + partial_search_cost t.xs.(r) (h + 1) + 4
          | _ ->
              (* Merge: r drops into our gap; its parent gap lost a key. *)
              t.hs.(r) <- h;
              recharge_one t r;
              msgs := !msgs + partial_search_cost t.xs.(r) (h + 1) + 4;
              repair r (h + 1))
        end
        else if l >= 0 && t.hs.(l) = h + 1 then begin
          let l2 = left_boundary l h in
          match List.rev (members_between l2 l h) with
          | m :: _ :: _ ->
              t.hs.(l) <- h;
              t.hs.(m) <- h + 1;
              recharge_one t l;
              recharge_one t m;
              msgs := !msgs + partial_search_cost t.xs.(l) (h + 1) + 4
          | _ ->
              t.hs.(l) <- h;
              recharge_one t l;
              msgs := !msgs + partial_search_cost t.xs.(l) (h + 1) + 4;
              repair l (h + 1)
        end
        else
          (* Both boundaries taller than h+1 would mean the parent node had
             no keys — impossible in a valid 1-2-3 structure. *)
          assert false
      end
    end
  in
  if nn > 0 then repair pos h0;
  !msgs

let memory_per_host t = List.init (size t) (fun i -> Network.memory t.net t.ids.(i))

let check_invariants t =
  let n = size t in
  if Array.length t.hs <> n || Array.length t.ids <> n then
    failwith "Det_skipnet: parallel arrays out of step";
  for i = 1 to n - 1 do
    if t.xs.(i - 1) >= t.xs.(i) then failwith "Det_skipnet: keys not strictly increasing"
  done;
  let hs = t.hs in
  Array.iter (fun h -> if h < 1 then failwith "Det_skipnet: height < 1") hs;
  let top = height t in
  for h = 1 to top - 1 do
    (* Walk the level-h list and measure gaps between level-(h+1) members;
       interior gaps must be 1..3, boundary gaps 0..3. *)
    let gap = ref 0 in
    let seen_boundary = ref false in
    let check_gap ~interior =
      if !gap > 3 then failwith (Printf.sprintf "Det_skipnet: gap %d > 3 at level %d" !gap h);
      if interior && !gap < 1 then failwith (Printf.sprintf "Det_skipnet: empty interior gap at level %d" h)
    in
    for j = 0 to n - 1 do
      if hs.(j) > h then begin
        check_gap ~interior:!seen_boundary;
        seen_boundary := true;
        gap := 0
      end
      else if hs.(j) = h then incr gap
    done;
    check_gap ~interior:false
  done
