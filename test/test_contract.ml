(* The contract a range structure signs to be skip-webbed
   ({!Skipweb_core.Range_structure}, §2.1–2.2), stated once and checked the
   same way on every instance: [Ints], [Points2d], [Points3d], [Strings] and
   [Segments]. A case brings keys, queries, a brute-force oracle and the
   keys its instance must reject; [Contract] makes one qcheck property of
   each clause. *)

module RS = Skipweb_core.Range_structure
module I = Skipweb_core.Instances
module L = Skipweb_linklist.Linklist
module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment
module Prng = Skipweb_util.Prng

let failf fmt = Printf.ksprintf failwith fmt
let take n l = List.filteri (fun i _ -> i < n) l

module type CASE = sig
  include RS.S

  val keys : Prng.t -> int -> key array
  (** [n] keys that can all be stored together; repeats are allowed
      where the instance ignores them. *)

  val queries : Prng.t -> key list -> query list

  val oracle : key list -> t -> query -> unit
  (** Fails unless [t], holding exactly these keys, answers the query
      (and the scans it anchors) as brute force over the keys does. *)

  val rejected : key list -> key list
  (** Keys whose insert into a set of these keys raises [Invalid_argument]. *)

  val walk : int list
  (** The set sizes an update walk passes through, one key at a time. *)

  val removable : bool
  (** [false] for an insert-only instance: its [remove] raises, and a
      stored key inserted again is rejected, not ignored. *)

  val check_invariants : t -> unit

  val in_order : (query -> query -> int) option
  (** The order {!order} lists queries in, restated by brute force;
      [None] for an instance whose [order] is the identity. *)
end

module Contract (C : CASE) = struct
  let ids t =
    let l = ref [] in
    C.iter_range_ids t ~f:(fun id -> l := id :: !l);
    List.sort compare !l

  let same what want got = if want <> got then failf "%s: %s" C.name what
  let minus a b = List.filter (fun x -> not (List.mem x b)) a

  (* What a query reads: the located range's descriptor and its answer. *)
  let view t q =
    let loc, _ = C.locate t q in
    (C.describe t loc, C.answer t loc q)

  (* Ids are compared as a set: two instances may give one id to
     different ranges. *)
  let state t qs = (C.size t, C.storage_units t, ids t, List.map (view t) qs)

  let agree what (s1, u1, i1, v1) (s2, u2, i2, v2) =
    same (what ^ ": size") s1 s2;
    same (what ^ ": storage_units") u1 u2;
    same (what ^ ": range-id set") i1 i2;
    same (what ^ ": describe and answer") v1 v2

  let largest = List.fold_left max 1 C.walk

  let sample rng =
    let keys = C.keys rng (Prng.int rng (largest + 1)) in
    (keys, C.queries rng (Array.to_list keys))

  (* From [build [||]] through every size of [C.walk], one update at a
     time, now and then inserting a stored key again or removing an absent
     one (both no-ops). [f stored t what before delta] sees the keys stored,
     in insertion order, the set, and the ids live before the update; the
     empty build is step 0, with an empty delta. *)
  let walk seed f =
    let rng = Prng.create seed in
    let pool = C.keys rng (2 * largest) in
    let t = C.build [||] and stored = ref [] in
    let pick l = List.nth l (Prng.int rng (List.length l)) in
    let rec fresh i =
      let k = pool.(i mod Array.length pool) in
      if List.mem k !stored then fresh (i + 1) else k
    in
    let apply what op k =
      let before = ids t in
      let d = op t k in
      f !stored t what before d
    in
    f [] t "build [||]" (ids t) RS.empty_delta;
    let rec go = function
      | [] -> ()
      | target :: rest as todo ->
          let n = List.length !stored in
          if n = target then go rest
          else begin
            if C.removable && Prng.int rng 8 = 0 then
              if n > 0 && Prng.bool rng then apply "repeated insert" C.insert (pick !stored)
              else apply "absent remove" C.remove (fresh (Prng.int rng 1_000))
            else if n < target then begin
              let k = fresh (Prng.int rng 1_000) in
              stored := !stored @ [ k ];
              apply "insert" C.insert k
            end
            else begin
              let k = pick !stored in
              stored := List.filter (fun k' -> k' <> k) !stored;
              apply "remove" C.remove k
            end;
            go todo
          end
    in
    go C.walk

  let build_equals_inserts seed =
    let keys, qs = sample (Prng.create seed) in
    let grown = C.build [||] in
    Array.iter (fun k -> ignore (C.insert grown k)) keys;
    agree "build = inserts from empty" (state (C.build keys) qs) (state grown qs)

  (* Set equality both ways also makes the lists disjoint and every added
     id one that was not live before. *)
  let deltas seed =
    walk seed (fun _ t what before (d : RS.range_delta) ->
        let after = ids t in
        same (what ^ ": added = ids it made live") (minus after before) (List.sort compare d.added);
        same (what ^ ": removed = ids it killed") (minus before after) (List.sort compare d.removed))

  let storage seed =
    walk seed (fun stored t _ _ _ ->
        same "size = keys stored" (List.length stored) (C.size t);
        same "storage_units = live range ids" (List.length (ids t)) (C.storage_units t))

  let remove_undoes_insert seed =
    let rng = Prng.create seed in
    let keys, qs = sample rng in
    let t = C.build keys in
    List.iter
      (fun k ->
        let qs = qs @ C.queries rng [ k ] in
        let before = state t qs in
        ignore (C.insert t k);
        ignore (C.remove t k);
        C.check_invariants t;
        agree "remove undoes insert" before (state t qs))
      (List.filter (fun k -> not (Array.mem k keys)) (Array.to_list (C.keys rng 4)))

  (* Along a walk, every query reads what brute force and a fresh build
     of the same keys read. *)
  let oracle seed =
    let rng = Prng.create (seed + 1) in
    walk seed (fun stored t _ _ _ ->
        C.check_invariants t;
        let fresh = C.build (Array.of_list stored) in
        List.iter
          (fun q ->
            C.oracle stored t q;
            same "describe and answer = a fresh build's" (view fresh q) (view t q))
          (C.queries rng stored))

  (* The step Theorem 2 counts: a location in the structure over a random
     half T of S, handed over as its descriptor, refines in S to where a
     search of S from its root lands. *)
  let refine seed =
    let rng = Prng.create seed in
    let keys, qs = sample rng in
    let s = C.build keys in
    let t = C.build (Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list keys))) in
    List.iter
      (fun q ->
        let loc, _ = C.refine s ~from:(C.describe t (fst (C.locate t q))) q in
        same "refine from a half's location = locate" (view s q) (C.describe s loc, C.answer s loc q))
      qs

  (* A whole descent's refinements in one call: over a chain of nested
     random halves (level 0 first), [refine_path] calls [f] once for each
     level below the top, from the top down, with the visits of the
     describe/refine chain, and lands where the chain lands. *)
  let refine_path seed =
    let rng = Prng.create seed in
    let keys, qs = sample rng in
    let rec halves keys depth =
      if depth = 0 then [ keys ]
      else keys :: halves (Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list keys))) (depth - 1)
    in
    let sets = Array.of_list (List.map C.build (halves keys (Prng.int rng 7))) in
    let top = Array.length sets - 1 in
    List.iter
      (fun q ->
        let loc, _ = C.locate sets.(top) q in
        let chain = ref [] and here = ref loc in
        for l = top - 1 downto 0 do
          let loc', visited = C.refine sets.(l) ~from:(C.describe sets.(l + 1) !here) q in
          chain := (l, visited) :: !chain;
          here := loc'
        done;
        let calls = ref [] in
        let loc0 = C.refine_path sets loc q ~f:(fun l visited -> calls := (l, visited) :: !calls) in
        same "refine_path: f's levels and visits = the chain's" (List.rev !chain) (List.rev !calls);
        same "refine_path: level-0 view = the chain's"
          (C.describe sets.(0) !here, C.answer sets.(0) !here q)
          (C.describe sets.(0) loc0, C.answer sets.(0) loc0 q))
      qs

  let rejected seed =
    let keys, _ = sample (Prng.create seed) in
    let t = C.build keys in
    List.iter
      (fun k ->
        let size = C.size t and before = ids t in
        (match C.insert t k with
        | _ -> failf "%s: a key it must reject was accepted" C.name
        | exception Invalid_argument _ -> ());
        same "size after a rejected insert" size (C.size t);
        same "range ids after a rejected insert" before (ids t);
        C.check_invariants t)
      (C.rejected (Array.to_list keys))

  let shuffle rng a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a

  let permutation what p n =
    let seen = Array.make n false in
    Array.iter (fun i -> seen.(i) <- true) p;
    same (what ^ ": length") n (Array.length p);
    if not (Array.for_all Fun.id seen) then failf "%s: %s is not a permutation" C.name what

  (* [order] lists every index once, repeats included, the queries
     non-decreasing and equal ones in index order; with no order, it is
     the identity. It is total: the probes of keys the instance rejects
     get a place too. *)
  let order seed =
    let rng = Prng.create seed in
    let keys, qs = sample rng in
    let qs = Array.of_list qs in
    let qs = shuffle rng (Array.concat [ qs; Array.map C.probe keys; Array.sub qs 0 (Array.length qs / 2) ]) in
    let n = Array.length qs in
    let p = C.order qs in
    permutation "order" p n;
    let rejected = Array.of_list (List.map C.probe (C.rejected (Array.to_list keys))) in
    permutation "order with rejected probes" (C.order (Array.append rejected qs)) (Array.length rejected + n);
    match C.in_order with
    | None -> same "order: the identity" (Array.init n Fun.id) p
    | Some cmp ->
        for j = 1 to n - 1 do
          let c = cmp qs.(p.(j - 1)) qs.(p.(j)) in
          if c > 0 || (c = 0 && p.(j - 1) > p.(j)) then failf "%s: order out of order at %d" C.name j
        done

  (* What a hierarchy's bulk build relies on when it hands [build] its
     keys in [order]: the built structure does not depend on the order
     of its keys. *)
  let build_any_order seed =
    let rng = Prng.create seed in
    let keys, qs = sample rng in
    let sorted = Array.map (fun i -> keys.(i)) (C.order (Array.map C.probe keys)) in
    agree "build over shuffled keys = over sorted" (state (C.build sorted) qs)
      (state (C.build (shuffle rng keys)) qs)

  let suite =
    let prop name count f =
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:(C.name ^ ": " ^ name) ~count QCheck.small_nat (fun seed ->
             f seed;
             true))
    in
    [
      prop "build = inserts from empty" 20 build_equals_inserts;
      prop "delta = change in range ids" 5 deltas;
      prop "size, storage_units = keys, live ids" 5 storage;
      prop "answers = brute force along a walk" 3 oracle;
      prop "refine from a random half = locate" 20 refine;
      prop "refine_path = the describe/refine chain" 20 refine_path;
    ]
    @ [ prop "order: a stable sorting permutation" 20 order ]
    @ (if C.in_order = None then [] else [ prop "build over shuffled keys = sorted" 20 build_any_order ])
    @ (if C.removable then [ prop "remove undoes insert" 20 remove_undoes_insert ] else [])
    @
    if C.rejected [] = [] then []
    else [ prop "a rejected key leaves no trace" 20 rejected ]
end

module Ints_case = struct
  include I.Ints

  (* Multiples of 4: every gap between two keys holds an exact midpoint
     (an answer tie) and a point next to each end. *)
  let bound = 4000
  let keys rng n = Array.init n (fun _ -> 4 * Prng.int rng (bound / 4))

  (* Every key, three points in every gap, and both ends. *)
  let queries _ keys =
    let a = Array.of_list (List.sort_uniq compare keys) in
    let gap i = [ a.(i) + 1; (a.(i) + a.(i + 1)) / 2; a.(i + 1) - 1 ] in
    List.sort_uniq compare
      ([ -5; -1; bound; bound + 5 ] @ keys @ List.concat (List.init (max 0 (Array.length a - 1)) gap))

  (* Range codes are ranks: node i is 2i + 1 and the link below it 2i. A
     locate walks every link code up to its range, a refine hops straight
     to it, and a scan [q, hi] enters each node in range and the link after
     it, less the located range. *)
  let oracle keys t q =
    let below x = List.length (List.filter (fun k -> k < x) keys) in
    let stored = List.mem q keys in
    let code = if stored then (2 * below q) + 1 else 2 * below q in
    let sorted = List.sort compare keys in
    let pred = List.find_opt (fun k -> k < q) (List.rev sorted) in
    let succ = List.find_opt (fun k -> k > q) sorted in
    let nearest =
      match (pred, succ) with
      | _ when stored -> Some q
      | None, s | s, None -> s
      | Some p, Some s -> Some (if q - p <= s - q then p else s)
    in
    let side b inf = match b with Some k -> L.Key k | None -> inf in
    let span = if stored then (L.Key q, L.Key q) else (side pred L.Neg_inf, side succ L.Pos_inf) in
    let loc, visited = locate t q in
    if visited <> List.init ((code / 2) + 1) (fun i -> 2 * i) @ [ code ] then failf "locate %d visits" q;
    if answer t loc q <> nearest then failf "answer %d" q;
    if describe t loc <> span then failf "describe %d" q;
    let rloc, rvisited = refine t ~from:span q in
    if rvisited <> [ code ] || answer t rloc q <> nearest then failf "refine %d" q;
    List.iter
      (fun hi ->
        let count, visited = scan t loc (q, hi) in
        let lb = below q and ub = below (hi + 1) in
        let want = if hi < q then 0 else ub - lb in
        let walked = List.init ((2 * ub) - (2 * lb)) (fun i -> (2 * lb) + 1 + i) in
        if count <> want then failf "scan [%d, %d] count" q hi;
        if visited <> if want = 0 then [] else List.filter (fun c -> c <> code) walked then
          failf "scan [%d, %d] visits" q hi)
      [ q - 1; q; q + 1; q + 7; q + 50; bound + 5 ]

  let rejected _ = []

  (* Across the 32-key flat/chunked cutoff, and 16, both ways. *)
  let walk = [ 15; 16; 17; 31; 32; 33; 64; 33; 32; 31; 17; 16; 15; 0 ]
  let removable = true

  let in_order = Some Int.compare

  (* The ids are the dense codes 0 .. 2m of m keys, and a set of at most
     32 keys is flat: its record and one array of its keys, m + 4 words,
     where a chunked set holds 50 words before its first key. The shape
     is invisible to every [S] function, but [refine_path] reads each
     shape's arrays directly. *)
  let check_invariants t =
    let l = ref [] in
    iter_range_ids t ~f:(fun id -> l := id :: !l);
    if List.sort compare !l <> List.init ((2 * size t) + 1) Fun.id then failwith "ids are not 0 .. 2m";
    let flat = Obj.reachable_words (Obj.repr t) <= size t + 4 in
    if flat <> (size t <= 32) then failf "a set of %d keys is %s" (size t) (if flat then "flat" else "chunked")
end

module Points_case
    (P : RS.S
           with type t = Skipweb_quadtree.Cqtree.t
            and type key = Point.t
            and type query = Point.t
            and type answer = I.cell_answer
            and type scan = I.point_scan
            and type scan_answer = I.point_scan_answer) (D : sig
      val dim : int
    end) =
struct
  include P

  let coord rng = Array.init D.dim (fun _ -> Prng.float rng 1.0)

  (* A third are near twins of an earlier key: deep compressed links. *)
  let keys rng n =
    let a = Array.make n [||] in
    for i = 0 to n - 1 do
      a.(i) <-
        (if i > 0 && Prng.int rng 3 = 0 then
           Array.map (fun x -> Float.min 0.999999 (x +. 1e-7)) a.(Prng.int rng i)
         else coord rng)
    done;
    a

  let queries rng keys = keys @ List.init 8 (fun _ -> coord rng)

  (* The tree stores grid-snapped points; the oracle ranks and reports the
     same representatives. A box runs from the query a third of the way to
     the far corner. *)
  let oracle keys t q =
    let g = Point.to_grid in
    let snapped = List.map (fun p -> Point.of_grid (g p)) keys in
    let run s = scan t (fst (locate t (scan_probe s))) s in
    if (answer t (fst (locate t q)) q).I.cell_point <> List.find_opt (fun p -> g p = g q) snapped then
      failwith "cell_point";
    let hi = Array.map (fun x -> x +. ((1.0 -. x) /. 3.0)) q in
    let glo = g q and ghi = g hi in
    let inside p = Array.for_all Fun.id (Array.mapi (fun i c -> glo.(i) <= c && c <= ghi.(i)) (g p)) in
    let in_box = List.sort compare (List.filter inside snapped) in
    List.iter
      (fun limit ->
        match run (I.Box { lo = q; hi; limit }) with
        | I.Box_hits { count; sample }, visited ->
            if count <> List.length in_box then failwith "box count";
            if List.length sample <> min limit count then failwith "box sample size";
            if not (List.for_all (fun p -> List.mem p in_box) sample) then failwith "box sample";
            if limit >= count && List.sort compare sample <> in_box then failwith "box report";
            if keys <> [] && visited = [] then failwith "box walk uncharged"
        | I.Knn_hits _, _ -> failwith "box answered as k-NN")
      [ 3; 10_000 ];
    let by_distance = List.sort compare (List.map (fun p -> (Point.dist_sq p q, p)) snapped) in
    match run (I.Knn { center = q; k = 5 }) with
    | I.Knn_hits hits, visited ->
        if hits <> List.map (fun (d, p) -> (p, sqrt d)) (take 5 by_distance) then failwith "k-NN";
        if keys <> [] && visited = [] then failwith "k-NN walk uncharged"
    | I.Box_hits _, _ -> failwith "k-NN answered as a box"

  let rejected _ = [ Array.make (D.dim + 1) 0.5 ]
  let walk = [ 3; 0; 24; 9; 30; 0 ]
  let removable = true
  let check_invariants = Skipweb_quadtree.Cqtree.check_invariants

  (* z-order: the grid coordinates' bits interleaved, most significant
     bit first and, within a bit, the highest dimension first. *)
  let interleaved p =
    let g = Point.to_grid p in
    String.concat ""
      (List.concat_map
         (fun bit ->
           List.init D.dim (fun i -> if (g.(D.dim - 1 - i) lsr bit) land 1 = 1 then "1" else "0"))
         (List.init Point.grid_bits (fun b -> Point.grid_bits - 1 - b)))

  let in_order = Some (fun a b -> String.compare (interleaved a) (interleaved b))
end

module Strings_case = struct
  include I.Strings

  let word rng = String.init (Prng.int rng 7) (fun _ -> Char.chr (97 + Prng.int rng 3))
  let keys rng n = Array.init n (fun _ -> word rng)

  (* Every key, a prefix of each, and fresh words. *)
  let queries rng keys =
    List.concat_map (fun k -> [ k; String.sub k 0 (Prng.int rng (String.length k + 1)) ]) keys
    @ List.init 8 (fun _ -> word rng)

  let oracle keys t q =
    let common s =
      let n = min (String.length s) (String.length q) in
      let rec go i = if i < n && s.[i] = q.[i] then go (i + 1) else i in
      go 0
    in
    let lcp = String.sub q 0 (List.fold_left (fun acc s -> max acc (common s)) 0 keys) in
    let extending = List.sort compare (List.filter (String.starts_with ~prefix:q) keys) in
    let loc, _ = locate t q in
    if answer t loc q <> { I.lcp; matches = List.length extending } then failf "answer %S" q;
    let { I.total; strings }, _ = scan t loc { I.prefix = q; scan_limit = 3 } in
    if total <> List.length extending || strings <> take 3 extending then failf "prefix scan %S" q

  let rejected _ = []
  let walk = [ 12; 4; 30; 0 ]
  let removable = true
  let check_invariants = Skipweb_trie.Ctrie.check_invariants
  let in_order = Some String.compare
end

module Segments_case = struct
  include I.Segments

  let keys rng n = Skipweb_workload.Workload.disjoint_segments ~seed:(Prng.int rng 1_000_000) ~n
  let queries rng _ =
    let c () = 0.001 +. Prng.float rng 0.998 in
    List.init 24 (fun _ -> (c (), c ()))

  (* The stored segments directly above and below the query. *)
  let oracle keys t ((qx, qy) as q) =
    let y s = Segment.y_at s qx in
    let spans s = fst (fst (Segment.endpoints s)) < qx && qx < fst (snd (Segment.endpoints s)) in
    (* The spanning segment beyond [qy] on the side [beyond] names, and
       nearest to it. *)
    let closest beyond =
      List.fold_left
        (fun acc s ->
          let nearer () = Option.fold ~none:true ~some:(fun a -> beyond (y a) (y s)) acc in
          if spans s && beyond (y s) qy && nearer () then Some s else acc)
        None keys
      |> Option.map Segment.id
    in
    let a = answer t (fst (locate t q)) q in
    if a.I.above <> closest ( > ) || a.I.below <> closest ( < ) then failf "around (%g, %g)" qx qy

  (* A segment crossing a stored one, one sharing its left abscissa, and
     one leaving the square. *)
  let rejected keys =
    let make = Segment.make ~id:1000 in
    let outside = make (0.6123457, -0.05) (0.7123457, 0.2) in
    match keys with
    | [] -> [ outside ]
    | s :: _ ->
        let (x0, y0), (x1, _) = Segment.endpoints s in
        let xa = x0 +. (0.37 *. (x1 -. x0)) and w = 0.05 *. (x1 -. x0) in
        let ya = Segment.y_at s xa in
        [
          make (xa -. w, ya -. 0.01) (xa +. (2.0 *. w), ya +. 0.02);
          make (x0, if y0 < 0.5 then y0 +. 0.2 else y0 -. 0.2) (x0 +. 0.0123457, 0.5);
          outside;
        ]

  let walk = [ 20 ]
  let removable = false
  let check_invariants = Skipweb_trapmap.Trapmap.check_invariants

  (* No order: a build numbers trapezoids in array order, so a hierarchy
     that built its sets from permuted keys would move every range, and a
     locate scans the trapezoid list, so no query order is faster. *)
  let in_order = None
end

let suite =
  let module Ints = Contract (Ints_case) in
  let module P2 = Contract (Points_case (I.Points2d) (struct let dim = 2 end)) in
  let module P3 = Contract (Points_case (I.Points3d) (struct let dim = 3 end)) in
  let module Strings = Contract (Strings_case) in
  let module Segments = Contract (Segments_case) in
  List.concat [ Ints.suite; P2.suite; P3.suite; Strings.suite; Segments.suite ]
