module Network = Skipweb_net.Network
module Prng = Skipweb_util.Prng
module Linklist = Skipweb_linklist.Linklist
module LL = Level_lists

type search_result = {
  predecessor : int option;
  successor : int option;
  nearest : int option;
  messages : int;
}

let answer q ~pred ~succ ~messages =
  { predecessor = pred; successor = succ; nearest = Linklist.closest q ~pred ~succ; messages }

let no_answer = { predecessor = None; successor = None; nearest = None; messages = 0 }

module type S = sig
  type t

  val create : net:Network.t -> seed:int -> keys:int array -> t
  val size : t -> int
  val keys : t -> int array
  val key : t -> int -> int
  val position : t -> int -> int
  val search : t -> from:int -> int -> search_result
  val search_from_random : t -> rng:Prng.t -> int -> search_result
  val insert : t -> int -> int
  val delete : t -> int -> int
  val host_of_index : t -> int -> Network.host
  val memory_per_host : t -> int list
  val check_invariants : t -> unit
end

module type RULES = sig
  val name : string
  val memory_units : LL.t -> int -> int
  val route :
    LL.t -> from:int -> dir_right:bool -> admissible:(int -> bool) -> goto:(int -> unit) -> unit
  val refresh_messages : LL.t -> int -> int
end

module Make (R : RULES) = struct
  type t = {
    net : Network.t;
    lists : LL.t;
    charged : (int, int) Hashtbl.t;  (* id -> memory units currently charged *)
  }

  let size t = LL.size t.lists
  let keys t = LL.keys t.lists
  let key t i = LL.key t.lists i
  let position t k = LL.position t.lists k
  let host_of_index t i = LL.id t.lists i

  (* Brings every live element's charge to its units; [delete] releases the
     removed element's charge itself. *)
  let recharge t =
    for i = 0 to size t - 1 do
      let id = LL.id t.lists i in
      let want = R.memory_units t.lists i in
      let have = try Hashtbl.find t.charged id with Not_found -> 0 in
      if want <> have then begin
        Network.charge_memory t.net id (want - have);
        Hashtbl.replace t.charged id want
      end
    done

  let create ~net ~seed ~keys =
    let lists = LL.create ~seed ~keys in
    if LL.size lists > Network.host_count net then
      invalid_arg (R.name ^ ".create: not enough hosts");
    let t = { net; lists; charged = Hashtbl.create (2 * LL.size lists) } in
    recharge t;
    t

  (* Every search starts at the originating element and moves
     monotonically toward the target; [R.route] decides the hops. *)
  let search t ~from q =
    let n = size t in
    if n = 0 then no_answer
    else begin
      if from < 0 || from >= n then invalid_arg (R.name ^ ".search: bad origin");
      let session = Network.start t.net (host_of_index t from) in
      let dir_right = q >= LL.key t.lists from in
      let admissible j = if dir_right then LL.key t.lists j <= q else LL.key t.lists j >= q in
      R.route t.lists ~from ~dir_right ~admissible ~goto:(fun j ->
          Network.goto session (host_of_index t j));
      Network.finish session;
      answer q ~pred:(LL.predecessor t.lists q) ~succ:(LL.successor t.lists q)
        ~messages:(Network.messages session)
    end

  let search_from_random t ~rng q =
    let n = size t in
    if n = 0 then no_answer else search t ~from:(Prng.int rng n) q

  (* The new element takes the next fresh id as its host, so the check is
     on that id, before anything moves. *)
  let insert t k =
    if LL.mem t.lists k then invalid_arg (R.name ^ ".insert: duplicate key");
    if LL.next_id t.lists >= Network.host_count t.net then
      invalid_arg (R.name ^ ".insert: no spare host");
    let search_cost = if size t = 0 then 0 else (search t ~from:0 k).messages in
    let pos, linking = LL.splice_in t.lists k in
    let cost = search_cost + linking + R.refresh_messages t.lists pos in
    recharge t;
    cost

  let delete t k =
    if not (LL.mem t.lists k) then invalid_arg (R.name ^ ".delete: absent key");
    let search_cost = (search t ~from:0 k).messages in
    let pos = LL.position t.lists k in
    let unlink = 2 * (LL.top_level t.lists pos + 1) in
    let cost = search_cost + unlink + R.refresh_messages t.lists pos in
    let id = LL.id t.lists pos in
    Network.charge_memory t.net id (-Hashtbl.find t.charged id);
    Hashtbl.remove t.charged id;
    ignore (LL.splice_out t.lists k);
    recharge t;
    cost

  let memory_per_host t = List.init (size t) (fun i -> Network.memory t.net (host_of_index t i))

  (* Against [R.memory_units], not [Network.memory]: the bucket skip graph
     charges its buckets on the same hosts. *)
  let check_invariants t =
    LL.check_invariants t.lists;
    if Hashtbl.length t.charged <> size t then failwith (R.name ^ ": charged ids are not the live ids");
    for i = 0 to size t - 1 do
      if Hashtbl.find_opt t.charged (LL.id t.lists i) <> Some (R.memory_units t.lists i) then
        failwith (R.name ^ ": charged units disagree with the element's")
    done
end

(* The Aspnes–Shah search: start at the originating element's top level and
   move as far as possible toward the target, dropping a level when stuck. *)
include Make (struct
  let name = "Skip_graph"

  (* key + root pointer + two pointers per participating level *)
  let memory_units lists i = 2 + (2 * (LL.top_level lists i + 1))

  let route lists ~from ~dir_right ~admissible ~goto =
    let cur = ref from in
    for level = LL.top_level lists from downto 0 do
      let continue = ref true in
      while !continue do
        let next =
          if dir_right then LL.right_neighbor lists !cur level
          else LL.left_neighbor lists !cur level
        in
        match next with
        | Some j when admissible j ->
            cur := j;
            goto j
        | Some _ | None -> continue := false
      done
    done

  let refresh_messages _ _ = 0
end)
