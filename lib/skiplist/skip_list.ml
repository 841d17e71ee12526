module Prng = Skipweb_util.Prng

module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (Ord : ORDERED) = struct
  type key = Ord.t

  (* A node is a tower: [forward.(i)] is the successor at level i. The
     header is a sentinel tower of maximal height holding no key. *)
  type 'a node = {
    nkey : key option;  (* None only for the header *)
    mutable value : 'a option;
    forward : 'a node option array;
  }

  type 'a t = {
    header : 'a node;
    max_level : int;
    rng : Prng.t;
    mutable level : int;  (* highest level currently in use, >= 1 *)
    mutable length : int;
  }

  let create ?(max_level = 32) ~seed () =
    if max_level < 1 then invalid_arg "Skip_list.create: max_level >= 1";
    {
      header = { nkey = None; value = None; forward = Array.make max_level None };
      max_level;
      rng = Prng.create seed;
      level = 1;
      length = 0;
    }

  let length t = t.length
  let is_empty t = t.length = 0

  let node_key n =
    match n.nkey with
    | Some k -> k
    | None -> invalid_arg "Skip_list: sentinel has no key"

  let random_level t =
    let rec go l = if l < t.max_level && Prng.bool t.rng then go (l + 1) else l in
    go 1

  (* Walk from the top level, recording the rightmost node strictly before
     [k] at every level. Returns the update vector. *)
  let find_update t k =
    let update = Array.make t.max_level t.header in
    let x = ref t.header in
    for i = t.level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        match !x.forward.(i) with
        | Some next when Ord.compare (node_key next) k < 0 -> x := next
        | Some _ | None -> continue := false
      done;
      update.(i) <- !x
    done;
    update

  let find t k =
    let update = find_update t k in
    match update.(0).forward.(0) with
    | Some n when Ord.compare (node_key n) k = 0 -> n.value
    | Some _ | None -> None

  let mem t k = find t k <> None

  let insert t k v =
    let update = find_update t k in
    match update.(0).forward.(0) with
    | Some n when Ord.compare (node_key n) k = 0 -> n.value <- Some v
    | Some _ | None ->
        let lvl = random_level t in
        if lvl > t.level then begin
          for i = t.level to lvl - 1 do
            update.(i) <- t.header
          done;
          t.level <- lvl
        end;
        let node = { nkey = Some k; value = Some v; forward = Array.make lvl None } in
        for i = 0 to lvl - 1 do
          node.forward.(i) <- update.(i).forward.(i);
          update.(i).forward.(i) <- Some node
        done;
        t.length <- t.length + 1

  let remove t k =
    let update = find_update t k in
    match update.(0).forward.(0) with
    | Some n when Ord.compare (node_key n) k = 0 ->
        for i = 0 to Array.length n.forward - 1 do
          if i < t.level then
            match update.(i).forward.(i) with
            | Some m when m == n -> update.(i).forward.(i) <- n.forward.(i)
            | Some _ | None -> ()
        done;
        while t.level > 1 && t.header.forward.(t.level - 1) = None do
          t.level <- t.level - 1
        done;
        t.length <- t.length - 1;
        true
    | Some _ | None -> false

  let successor t k =
    let update = find_update t k in
    match update.(0).forward.(0) with
    | Some n -> Some (node_key n, Option.get n.value)
    | None -> None

  let predecessor t k =
    let update = find_update t k in
    (* update.(0) is the rightmost node with key < k; check for equality. *)
    match update.(0).forward.(0) with
    | Some n when Ord.compare (node_key n) k = 0 -> Some (node_key n, Option.get n.value)
    | Some _ | None ->
        if update.(0) == t.header then None
        else Some (node_key update.(0), Option.get update.(0).value)

  let nearest t k =
    match predecessor t k with
    | Some _ as p -> p
    | None -> successor t k

  let iter t ~f =
    let rec go = function
      | None -> ()
      | Some n ->
          f (node_key n) (Option.get n.value);
          go n.forward.(0)
    in
    go t.header.forward.(0)

  let to_list t =
    let acc = ref [] in
    iter t ~f:(fun k v -> acc := (k, v) :: !acc);
    List.rev !acc

  let height t = t.level

  let tower_height t k =
    let update = find_update t k in
    match update.(0).forward.(0) with
    | Some n when Ord.compare (node_key n) k = 0 -> Some (Array.length n.forward)
    | Some _ | None -> None

  let search_cost t k =
    let hops = ref 0 in
    let x = ref t.header in
    for i = t.level - 1 downto 0 do
      incr hops;  (* dropping a level inspects one pointer *)
      let continue = ref true in
      while !continue do
        match !x.forward.(i) with
        | Some next when Ord.compare (node_key next) k < 0 ->
            x := next;
            incr hops
        | Some _ | None -> continue := false
      done
    done;
    !hops

  let check_invariants t =
    (* Bottom level sorted strictly ascending, and every level is a
       subsequence of the level below. *)
    let rec check_sorted prev = function
      | None -> ()
      | Some n ->
          (match prev with
          | Some p when Ord.compare (node_key p) (node_key n) >= 0 ->
              failwith
                (Printf.sprintf "Skip_list: order violation %s >= %s"
                   (Ord.to_string (node_key p))
                   (Ord.to_string (node_key n)))
          | Some _ | None -> ());
          check_sorted (Some n) n.forward.(0)
    in
    check_sorted None t.header.forward.(0);
    for i = 1 to t.level - 1 do
      (* Every node present at level i must be reachable at level i-1. *)
      let below = ref [] in
      let rec collect = function
        | None -> ()
        | Some n ->
            below := node_key n :: !below;
            collect n.forward.(i - 1)
      in
      collect t.header.forward.(i - 1);
      let present = !below in
      let rec check_level = function
        | None -> ()
        | Some n ->
            if not (List.exists (fun k -> Ord.compare k (node_key n) = 0) present) then
              failwith "Skip_list: level is not a subsequence of the level below";
            check_level n.forward.(i)
      in
      check_level t.header.forward.(i)
    done;
    let count = ref 0 in
    iter t ~f:(fun _ _ -> incr count);
    if !count <> t.length then failwith "Skip_list: length out of sync"
end

module Int = Make (struct
  type t = int

  let compare = Stdlib.compare
  let to_string = string_of_int
end)
