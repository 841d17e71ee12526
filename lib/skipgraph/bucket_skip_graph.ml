module Network = Skipweb_net.Network
module Prng = Skipweb_util.Prng

(* Buckets are identified by their immutable separator key: bucket s holds
   exactly the keys in [s, next separator). The leftmost separator is
   min_int. Hosts are the skip-graph element ids of their separators. *)
type t = {
  net : Network.t;
  graph : Skip_graph.t;
  contents : (int, int list ref) Hashtbl.t;  (* separator -> keys, sorted *)
  target : int;  (* nominal bucket capacity before a split *)
  mutable items : int;
}

let size t = t.items

let bucket_count t = Skip_graph.size t.graph

(* A separator's host, by binary search over the skip graph's keys. *)
let host_of_sep t sep = Skip_graph.host_of_index t.graph (Skip_graph.position t.graph sep)

let create ~net ~seed ~keys ~buckets =
  if buckets < 1 then invalid_arg "Bucket_skip_graph.create: buckets >= 1";
  if buckets > Network.host_count net then invalid_arg "Bucket_skip_graph.create: not enough hosts";
  let xs = Array.copy keys in
  Array.sort compare xs;
  let n = Array.length xs in
  let per = max 1 ((n + buckets - 1) / buckets) in
  let seps = ref [] and contents = Hashtbl.create buckets in
  let b = ref 0 in
  while !b * per < n || !b = 0 do
    let lo = !b * per in
    let hi = min n ((!b + 1) * per) in
    let sep = if !b = 0 then min_int else xs.(lo) in
    seps := sep :: !seps;
    let chunk = Array.to_list (Array.sub xs lo (max 0 (hi - lo))) in
    Hashtbl.replace contents sep (ref chunk);
    incr b
  done;
  let graph = Skip_graph.create ~net ~seed ~keys:(Array.of_list (List.rev !seps)) in
  let t = { net; graph; contents; target = per; items = n } in
  (* Charge each bucket host for its payload. *)
  Hashtbl.iter
    (fun sep chunk -> Network.charge_memory net (host_of_sep t sep) (List.length !chunk))
    contents;
  t

(* The bucket containing q is the one whose separator is the predecessor of
   q among separators. *)
let route t ~from q =
  let r = Skip_graph.search t.graph ~from q in
  let sep = match r.Skip_graph.predecessor with Some s -> s | None -> min_int in
  (sep, r.Skip_graph.messages)

type search_result = Skip_graph.search_result

let bucket_list t sep = !(Hashtbl.find t.contents sep)

let search t ~rng q =
  let from = Prng.int rng (bucket_count t) in
  let sep, msgs = route t ~from q in
  let idx = Skip_graph.position t.graph sep in
  let local = bucket_list t sep in
  let pred = List.fold_left (fun acc k -> if k <= q then Some k else acc) None local in
  (* The predecessor might live in an earlier bucket if this one is empty
     below q; the successor might live in a later one. Each neighbor-bucket
     consultation costs one message. *)
  let extra = ref 0 in
  let pred =
    match pred with
    | Some _ as p -> p
    | None ->
        let rec back i =
          if i < 0 then None
          else begin
            incr extra;
            match List.rev (bucket_list t (Skip_graph.key t.graph i)) with
            | last :: _ -> Some last
            | [] -> back (i - 1)
          end
        in
        back (idx - 1)
  in
  let succ_local = List.find_opt (fun k -> k > q) local in
  let succ =
    match succ_local with
    | Some _ as s -> s
    | None ->
        let rec fwd i =
          if i >= bucket_count t then None
          else begin
            incr extra;
            match bucket_list t (Skip_graph.key t.graph i) with k :: _ -> Some k | [] -> fwd (i + 1)
          end
        in
        fwd (idx + 1)
  in
  let succ = match (pred, succ) with Some p, _ when p = q -> Some q | _ -> succ in
  Skip_graph.answer q ~pred ~succ ~messages:(msgs + !extra)

let rec insert_sorted k = function
  | [] -> [ k ]
  | x :: rest when k < x -> k :: x :: rest
  | x :: _ when k = x -> invalid_arg "Bucket_skip_graph.insert: duplicate key"
  | x :: rest -> x :: insert_sorted k rest

let maybe_split t sep =
  let chunk = Hashtbl.find t.contents sep in
  let len = List.length !chunk in
  if len > 2 * t.target && bucket_count t < Network.host_count t.net then begin
    (* Move the upper half to a fresh host keyed by the median. *)
    let keep = len / 2 in
    let rec split i acc = function
      | [] -> (List.rev acc, [])
      | x :: rest when i < keep -> split (i + 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let lower, upper = split 0 [] !chunk in
    match upper with
    | [] -> 0
    | median :: _ ->
        chunk := lower;
        Hashtbl.replace t.contents median (ref upper);
        let join_msgs = Skip_graph.insert t.graph median in
        let new_host = host_of_sep t median in
        let old_host = host_of_sep t sep in
        Network.charge_memory t.net new_host (List.length upper);
        Network.charge_memory t.net old_host (-(List.length upper));
        (* One message per relocated key, plus the skip-graph join. *)
        join_msgs + List.length upper
  end
  else 0

let insert t ~rng k =
  let from = Prng.int rng (bucket_count t) in
  let sep, msgs = route t ~from k in
  let chunk = Hashtbl.find t.contents sep in
  chunk := insert_sorted k !chunk;
  t.items <- t.items + 1;
  Network.charge_memory t.net (host_of_sep t sep) 1;
  let split_msgs = maybe_split t sep in
  msgs + 1 + split_msgs

let delete t ~rng k =
  let from = Prng.int rng (bucket_count t) in
  let sep, msgs = route t ~from k in
  let chunk = Hashtbl.find t.contents sep in
  if not (List.mem k !chunk) then invalid_arg "Bucket_skip_graph.delete: absent key";
  chunk := List.filter (fun x -> x <> k) !chunk;
  t.items <- t.items - 1;
  Network.charge_memory t.net (host_of_sep t sep) (-1);
  msgs + 1

let memory_per_host t = Skip_graph.memory_per_host t.graph

let check_invariants t =
  Skip_graph.check_invariants t.graph;
  let seps = Skip_graph.keys t.graph in
  let total = ref 0 in
  Array.iteri
    (fun i sep ->
      let chunk = bucket_list t sep in
      total := !total + List.length chunk;
      let hi = if i + 1 < Array.length seps then Some seps.(i + 1) else None in
      List.iter
        (fun k ->
          if k < sep then failwith "Bucket_skip_graph: key below separator";
          match hi with
          | Some h when k >= h -> failwith "Bucket_skip_graph: key beyond next separator"
          | Some _ | None -> ())
        chunk;
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            if a >= b then failwith "Bucket_skip_graph: bucket not sorted";
            sorted rest
        | [ _ ] | [] -> ()
      in
      sorted chunk)
    seps;
  if !total <> t.items then failwith "Bucket_skip_graph: item count out of sync"
