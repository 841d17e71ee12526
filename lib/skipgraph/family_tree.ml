module Network = Skipweb_net.Network
module Prng = Skipweb_util.Prng

type node = {
  key : int;
  id : int;  (* also the host *)
  prio : int;
  mutable left : node option;
  mutable right : node option;
}

type t = {
  net : Network.t;
  seed : int;
  mutable root : node option;
  mutable count : int;
  mutable next_id : int;
}

(* key + parent/left/right pointers + the host's root pointer *)
let units_per_host = 5

let priority t id = Prng.hash2 t.seed id

let size t = t.count

let rec node_depth = function
  | None -> 0
  | Some n -> 1 + max (node_depth n.left) (node_depth n.right)

let depth t = node_depth t.root

type search_result = Skip_graph.search_result

let search t ~from q =
  match t.root with
  | None -> Skip_graph.no_answer
  | Some root ->
      let session = Network.start t.net from in
      Network.goto session root.id;
      let pred = ref None and succ = ref None in
      let rec desc n =
        Network.goto session n.id;
        if n.key = q then begin
          pred := Some n.key;
          succ := Some n.key
        end
        else if q < n.key then begin
          (match !succ with Some s when s <= n.key -> () | Some _ | None -> succ := Some n.key);
          match n.left with Some l -> desc l | None -> ()
        end
        else begin
          (match !pred with Some p when p >= n.key -> () | Some _ | None -> pred := Some n.key);
          match n.right with Some r -> desc r | None -> ()
        end
      in
      desc root;
      Network.finish session;
      Skip_graph.answer q ~pred:!pred ~succ:!succ ~messages:(Network.messages session)

let rotate_right n =
  match n.left with
  | None -> assert false
  | Some l ->
      n.left <- l.right;
      l.right <- Some n;
      l

let rotate_left n =
  match n.right with
  | None -> assert false
  | Some r ->
      n.right <- r.left;
      r.left <- Some n;
      r

let insert t k =
  if t.next_id >= Network.host_count t.net then invalid_arg "Family_tree.insert: no spare host";
  let msgs = ref 0 in
  let fresh = { key = k; id = t.next_id; prio = priority t t.next_id; left = None; right = None } in
  let rec ins = function
    | None -> fresh
    | Some n ->
        incr msgs;
        if k = n.key then invalid_arg "Family_tree.insert: duplicate key"
        else if k < n.key then begin
          n.left <- Some (ins n.left);
          match n.left with
          | Some l when l.prio > n.prio ->
              incr msgs;  (* a rotation re-links O(1) hosts *)
              rotate_right n
          | Some _ | None -> n
        end
        else begin
          n.right <- Some (ins n.right);
          match n.right with
          | Some r when r.prio > n.prio ->
              incr msgs;
              rotate_left n
          | Some _ | None -> n
        end
  in
  t.root <- Some (ins t.root);
  t.next_id <- t.next_id + 1;
  t.count <- t.count + 1;
  Network.charge_memory t.net fresh.id units_per_host;
  !msgs + 1

let delete t k =
  let msgs = ref 0 in
  let removed = ref None in
  (* Rotate the doomed node down until it is a leaf, then drop it. *)
  let rec del = function
    | None -> invalid_arg "Family_tree.delete: absent key"
    | Some n ->
        incr msgs;
        if k < n.key then begin
          n.left <- del n.left;
          Some n
        end
        else if k > n.key then begin
          n.right <- del n.right;
          Some n
        end
        else begin
          removed := Some n;
          match (n.left, n.right) with
          | None, None -> None
          | Some _, None -> n.left
          | None, Some _ -> n.right
          | Some l, Some r ->
              incr msgs;
              if l.prio > r.prio then begin
                let top = rotate_right n in
                top.right <- del top.right;
                Some top
              end
              else begin
                let top = rotate_left n in
                top.left <- del top.left;
                Some top
              end
        end
  in
  t.root <- del t.root;
  t.count <- t.count - 1;
  (match !removed with
  | Some n -> Network.charge_memory t.net n.id (-units_per_host)
  | None -> ());
  !msgs

let create ~net ~seed ~keys =
  let t = { net; seed; root = None; count = 0; next_id = 0 } in
  Array.iter (fun k -> ignore (insert t k)) keys;
  t

let max_degree t =
  let rec go acc ~has_parent = function
    | None -> acc
    | Some n ->
        let deg =
          (if has_parent then 1 else 0)
          + (match n.left with Some _ -> 1 | None -> 0)
          + match n.right with Some _ -> 1 | None -> 0
        in
        let acc = max acc deg in
        let acc = go acc ~has_parent:true n.left in
        go acc ~has_parent:true n.right
  in
  go 0 ~has_parent:false t.root

let memory_per_host t =
  let acc = ref [] in
  let rec go = function
    | None -> ()
    | Some n ->
        if n.id < Network.host_count t.net then acc := Network.memory t.net n.id :: !acc;
        go n.left;
        go n.right
  in
  go t.root;
  !acc

let check_invariants t =
  let rec go lo hi prio_bound = function
    | None -> 0
    | Some n ->
        (match lo with Some l when n.key <= l -> failwith "Family_tree: BST order (low)" | Some _ | None -> ());
        (match hi with Some h when n.key >= h -> failwith "Family_tree: BST order (high)" | Some _ | None -> ());
        (match prio_bound with
        | Some p when n.prio > p -> failwith "Family_tree: heap order"
        | Some _ | None -> ());
        1 + go lo (Some n.key) (Some n.prio) n.left + go (Some n.key) hi (Some n.prio) n.right
  in
  let counted = go None None None t.root in
  if counted <> t.count then failwith "Family_tree: count out of sync"
