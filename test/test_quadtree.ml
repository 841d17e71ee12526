(* Tests for Skipweb_quadtree: compressed quadtrees/octrees (§3.1). *)

module Q = Skipweb_quadtree.Cqtree
module Point = Skipweb_geom.Point
module Workload = Skipweb_workload.Workload
module Prng = Skipweb_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let pts2 xs = Array.of_list (List.map (fun (x, y) -> Point.create [ x; y ]) xs)

(* Every stored point, in preorder: the leaves' points. *)
let iter_points t ~f = Q.iter_nodes t ~f:(fun n -> Option.iter f (Q.node_point n))

let test_empty () =
  let t = Q.build ~dim:2 [||] in
  checki "no points" 0 (Q.size t);
  checki "just the root" 1 (Q.node_count t);
  Q.check_invariants t

let test_singleton () =
  let t = Q.build ~dim:2 (pts2 [ (0.3, 0.7) ]) in
  checki "one point" 1 (Q.size t);
  checki "root + leaf" 2 (Q.node_count t);
  Q.check_invariants t

let test_duplicates_collapse () =
  let t = Q.build ~dim:2 (pts2 [ (0.3, 0.7); (0.3, 0.7); (0.1, 0.1) ]) in
  checki "two distinct points" 2 (Q.size t);
  Q.check_invariants t

let test_four_corners () =
  let t = Q.build ~dim:2 (pts2 [ (0.1, 0.1); (0.9, 0.1); (0.1, 0.9); (0.9, 0.9) ]) in
  checki "four points" 4 (Q.size t);
  Q.check_invariants t;
  (* The root splits immediately: its four children are the four leaves'
     top-level structures. *)
  checkb "shallow tree" true (Q.depth t <= 2)

let test_node_count_linear () =
  let pts = Workload.uniform_points ~seed:3 ~n:1000 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  Q.check_invariants t;
  checkb "O(n) nodes" true (Q.node_count t <= 2 * Q.size t + 1)

let test_diagonal_is_deep () =
  let pts = Workload.diagonal_points ~n:25 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  Q.check_invariants t;
  checkb "adversarial input is deep" true (Q.depth t >= 20)

let test_locate_contains_query () =
  let pts = Workload.uniform_points ~seed:5 ~n:300 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  let queries = Workload.uniform_query_points ~seed:6 ~n:100 ~dim:2 in
  Array.iter
    (fun q ->
      let loc, path = Q.locate t q in
      let depth_of n = fst (Q.node_cube n) in
      (* The path is strictly descending and starts at the root. *)
      (match path with
      | first :: _ -> checki "path starts at root" (Q.node_id (Q.root t)) (Q.node_id first)
      | [] -> Alcotest.fail "empty path");
      let rec strictly_deeper = function
        | a :: (b :: _ as rest) ->
            checkb "descending" true (depth_of a < depth_of b);
            strictly_deeper rest
        | [ _ ] | [] -> ()
      in
      strictly_deeper path;
      (* Last path node is the located node. *)
      match List.rev path with
      | last :: _ -> checki "path ends at location" (Q.node_id loc.Q.node) (Q.node_id last)
      | [] -> Alcotest.fail "empty path")
    queries

let test_locate_exact_point () =
  let pts = Workload.uniform_points ~seed:7 ~n:50 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  Array.iter
    (fun p ->
      let loc, _ = Q.locate t p in
      match loc.Q.slot with
      | Q.At_point -> (
          match Q.node_point loc.Q.node with
          | Some stored -> checkb "found the right leaf" true (Point.dist stored p < 1e-6)
          | None -> Alcotest.fail "located non-leaf for a stored point")
      | Q.Empty_quadrant _ | Q.Outside_child _ -> Alcotest.fail "stored point not located")
    pts

let test_incremental_matches_bulk () =
  (* The compressed quadtree is canonical: bulk build and incremental
     inserts must produce identical cube sets. *)
  let pts = Workload.uniform_points ~seed:8 ~n:200 ~dim:2 in
  let bulk = Q.build ~dim:2 pts in
  let inc = Q.build ~dim:2 [||] in
  Array.iter (fun p -> ignore (Q.insert inc p)) pts;
  Q.check_invariants inc;
  checki "same node count" (Q.node_count bulk) (Q.node_count inc);
  checki "same size" (Q.size bulk) (Q.size inc);
  checki "same depth" (Q.depth bulk) (Q.depth inc);
  (* Every bulk node cube exists in the incremental tree. *)
  Array.iter
    (fun p ->
      let loc_b, _ = Q.locate bulk p in
      let loc_i, _ = Q.locate inc p in
      checkb "same located cube" true (Q.node_cube loc_b.Q.node = Q.node_cube loc_i.Q.node))
    pts

let test_insert_then_remove_roundtrip () =
  let pts = Workload.uniform_points ~seed:9 ~n:150 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  let before = Q.node_count t in
  let extra = Point.create [ 0.123456; 0.654321 ] in
  checkb "insert ok" true (Q.insert t extra);
  checkb "insert dup rejected" false (Q.insert t extra);
  Q.check_invariants t;
  checkb "remove ok" true (Q.remove t extra);
  checkb "remove twice rejected" false (Q.remove t extra);
  Q.check_invariants t;
  checki "node count restored" before (Q.node_count t);
  checki "size restored" 150 (Q.size t)

let test_remove_all () =
  let pts = Workload.uniform_points ~seed:10 ~n:64 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  Array.iter (fun p -> checkb "removed" true (Q.remove t p)) pts;
  Q.check_invariants t;
  checki "empty again" 0 (Q.size t);
  checki "only root remains" 1 (Q.node_count t)

let test_three_dimensions () =
  let pts = Workload.uniform_points ~seed:11 ~n:400 ~dim:3 in
  let t = Q.build ~dim:3 pts in
  Q.check_invariants t;
  checki "octree holds all" 400 (Q.size t);
  let q = Point.create [ 0.5; 0.5; 0.5 ] in
  let _loc, path = Q.locate t q in
  checkb "octree locate terminates quickly" true (List.length path <= Q.depth t + 1)

let test_nearest_matches_brute_force () =
  let pts = Workload.uniform_points ~seed:12 ~n:500 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  let queries = Workload.uniform_query_points ~seed:13 ~n:50 ~dim:2 in
  Array.iter
    (fun q ->
      match Q.nearest t q with
      | None -> Alcotest.fail "nonempty tree"
      | Some (_, d) ->
          let brute = Array.fold_left (fun acc p -> Float.min acc (Point.dist p q)) infinity pts in
          Alcotest.(check (float 1e-9)) "exact NN distance" brute d)
    queries

let test_node_of_cube_lookup () =
  let pts = Workload.uniform_points ~seed:14 ~n:100 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  let loc, path = Q.locate t (Point.create [ 0.25; 0.75 ]) in
  ignore loc;
  List.iter
    (fun n ->
      match Q.node_of_cube t (Q.node_cube n) with
      | Some m -> checki "index finds the node" (Q.node_id n) (Q.node_id m)
      | None -> Alcotest.fail "node missing from cube index")
    path

let test_subset_cubes_exist_in_superset () =
  (* The property underpinning skip-web refinement (§2.3): every node cube
     of D(T) is a node cube of D(S) for T ⊆ S. *)
  let rng = Prng.create 15 in
  let pts = Workload.uniform_points ~seed:16 ~n:300 ~dim:2 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list pts)) in
  let s = Q.build ~dim:2 pts in
  let t = Q.build ~dim:2 sub in
  (* Walk all of t's nodes via located paths of its own points. *)
  Array.iter
    (fun p ->
      let _, path = Q.locate t p in
      List.iter
        (fun n ->
          checkb "T-cube exists in S" true (Q.node_of_cube s (Q.node_cube n) <> None))
        path)
    sub

let test_refinement_soundness () =
  (* locate in D(T), then continue from the same cube in D(S): must land on
     the same node as locating directly in D(S). *)
  let rng = Prng.create 17 in
  let pts = Workload.uniform_points ~seed:18 ~n:400 ~dim:2 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list pts)) in
  let s = Q.build ~dim:2 pts in
  let t = Q.build ~dim:2 sub in
  let queries = Workload.uniform_query_points ~seed:19 ~n:100 ~dim:2 in
  Array.iter
    (fun q ->
      let loc_t, _ = Q.locate t q in
      match Q.node_of_cube s (Q.node_cube loc_t.Q.node) with
      | None -> Alcotest.fail "refinement start cube missing in superset"
      | Some start ->
          let loc_s, _ = Q.locate_from s start q in
          let direct, _ = Q.locate s q in
          checkb "refined = direct" true
            (Q.node_cube loc_s.Q.node = Q.node_cube direct.Q.node))
    queries

let test_gap_count_small_on_random_halves () =
  let pts = Workload.uniform_points ~seed:20 ~n:1000 ~dim:2 in
  let rng = Prng.create 21 in
  let sub = Array.of_list (List.filter (fun _ -> Prng.bool rng) (Array.to_list pts)) in
  let s = Q.build ~dim:2 pts in
  let t = Q.build ~dim:2 sub in
  let queries = Workload.uniform_query_points ~seed:22 ~n:200 ~dim:2 in
  let total = ref 0 in
  Array.iter
    (fun q ->
      let loc_t, _ = Q.locate t q in
      let start_cube = Q.node_cube loc_t.Q.node in
      match Q.node_of_cube s start_cube with
      | None -> Alcotest.fail "cube missing"
      | Some start ->
          let _, path = Q.locate_from s start q in
          total := !total + List.length path)
    queries;
  let mean = float_of_int !total /. 200.0 in
  (* Lemma 3: expected O(1) refinement work; generous empirical bound. *)
  checkb "refinement descent short on average" true (mean < 8.0)

let qcheck_build_invariants =
  QCheck.Test.make ~name:"build invariants on random point sets" ~count:60
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, n) ->
      let pts = Workload.uniform_points ~seed ~n ~dim:2 in
      let t = Q.build ~dim:2 pts in
      Q.check_invariants t;
      Q.size t <= n)

let test_range_queries () =
  let pts = Workload.uniform_points ~seed:40 ~n:600 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  let boxes =
    [ (0.1, 0.1, 0.4, 0.5); (0.0, 0.0, 0.999, 0.999); (0.5, 0.5, 0.50001, 0.50001); (0.2, 0.8, 0.9, 0.95) ]
  in
  List.iter
    (fun (x0, y0, x1, y1) ->
      let lo = Point.create [ x0; y0 ] and hi = Point.create [ x1; y1 ] in
      let oracle =
        Array.to_list pts
        |> List.filter (fun p -> p.(0) >= x0 && p.(0) <= x1 && p.(1) >= y0 && p.(1) <= y1)
        |> List.length
      in
      (* Grid snapping moves points by < 2^-30, well under workload spacing. *)
      checki "range count = oracle" oracle (Q.range_count t ~lo ~hi);
      checki "report length = count" (Q.range_count t ~lo ~hi) (List.length (Q.range_report t ~lo ~hi));
      List.iter
        (fun p ->
          checkb "reported point inside box" true
            (p.(0) >= x0 -. 1e-8 && p.(0) <= x1 +. 1e-8 && p.(1) >= y0 -. 1e-8 && p.(1) <= y1 +. 1e-8))
        (Q.range_report t ~lo ~hi))
    boxes

let test_range_empty_box_rejected () =
  let t = Q.build ~dim:2 (pts2 [ (0.5, 0.5) ]) in
  checkb "inverted box rejected" true
    (try
       ignore (Q.range_count t ~lo:(Point.create [ 0.9; 0.1 ]) ~hi:(Point.create [ 0.1; 0.9 ]));
       false
     with Invalid_argument _ -> true)

(* ------- bulk build, charged scans ------- *)

module Pool = Skipweb_util.Pool

(* Full structural fingerprint including ids: two trees with equal
   censuses are indistinguishable to the hierarchy (placement hashes node
   ids). *)
let node_census t =
  let acc = ref [] in
  Q.iter_nodes t ~f:(fun n -> acc := (Q.node_id n, Q.node_cube n, Q.node_point n) :: !acc);
  List.sort compare !acc

let test_bulk_build_canonical_and_pooled () =
  let pts = Workload.uniform_points ~seed:77 ~n:4_000 ~dim:2 in
  let t = Q.build ~dim:2 pts in
  Q.check_invariants t;
  let census = node_census t in
  let rev = Array.of_list (List.rev (Array.to_list pts)) in
  checkb "permutation invariant (ids included)" true (node_census (Q.build ~dim:2 rev) = census);
  checkb "permutation invariant (whole arena)" true (Q.build ~dim:2 rev = t);
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let tp = Q.of_sorted ?pool ~dim:2 pts in
          Q.check_invariants tp;
          checkb "pooled build bit-identical" true (node_census tp = census);
          checkb "pooled arena identical" true (tp = t)))
    [ 2; 4 ]

(* ------- pinned structural digest -------

   Node ids feed host placement and child order drives the charged scan
   walks, so the tree's exact shape is part of the hierarchy's message
   contract, not an implementation detail. The digest covers a seeded
   bulk build, then a fixed interleaving of updates (duplicate inserts,
   removes of absent points, removes that splice an internal node out
   and re-inserts that recreate it), every update's (changed, added,
   removed) report, the preorder shape after the churn, and charged
   [range_scan]/[knn] walks for fixed queries along the way. *)

let digest_scenario ~dim ~seed =
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  let ints l = List.iter (fun i -> add "%d," i) l in
  let pt p = Array.iter (fun x -> add "%h," x) p in
  let quadrant_in ~pdepth corner =
    let q = ref 0 in
    Array.iteri (fun i c -> q := !q lor (((c lsr (Point.grid_bits - pdepth - 1)) land 1) lsl i)) corner;
    !q
  in
  let shape t =
    add "shape|";
    Q.iter_nodes t ~f:(fun n ->
        let depth, corner = Q.node_cube n in
        add "%d:%d:" (Q.node_id n) depth;
        ints (Array.to_list corner);
        add ":%d:[" (Q.subtree_size n);
        List.iter
          (fun (_, c) -> add "%d," (quadrant_in ~pdepth:depth c))
          (Q.node_children_cubes n);
        add "]|")
  in
  let rng = Prng.create seed in
  let coord () = Array.init dim (fun _ -> Prng.float rng 1.0) in
  let queries t =
    let lo = Array.init dim (fun _ -> Prng.float rng 0.6) in
    let hi = Array.map (fun x -> x +. 0.3) lo in
    let count, sample, visited = Q.range_scan t ~lo ~hi ~limit:7 in
    add "scan %d|" count;
    List.iter pt sample;
    ints visited;
    let hits, visited = Q.knn t (coord ()) ~k:5 in
    add "|knn|";
    List.iter (fun (p, d) -> pt p; add "%h;" d) hits;
    ints visited;
    add "\n"
  in
  let t = Q.build ~dim (Workload.uniform_points ~seed ~n:500 ~dim) in
  shape t;
  queries t;
  let live = ref [||] and nlive = ref 0 in
  let push p =
    if !nlive = Array.length !live then begin
      let bigger = Array.make ((2 * !nlive) + 1) p in
      Array.blit !live 0 bigger 0 !nlive;
      live := bigger
    end;
    !live.(!nlive) <- p;
    incr nlive
  in
  iter_points t ~f:push;
  let drop i =
    decr nlive;
    !live.(i) <- !live.(!nlive)
  in
  let report tag (changed, added, removed) =
    add "%s%b+" tag changed;
    ints added;
    add "-";
    ints removed;
    add "|"
  in
  let splices = ref 0 in
  for step = 1 to 2_000 do
    let r = Prng.int rng 10 in
    if r < 4 || !nlive = 0 then begin
      (* Fresh point, half the time a near twin of a live one so deep
         compressed links appear. *)
      let p =
        if r < 2 && !nlive > 0 then
          Array.map (fun x -> Float.min 0.999999 (x +. 1e-7)) !live.(Prng.int rng !nlive)
        else coord ()
      in
      let (changed, _, _) as d = Q.insert_delta t p in
      if changed then push p;
      report "i" d
    end
    else if r = 4 then report "I" (Q.insert_delta t !live.(Prng.int rng !nlive))
    else if r = 5 then report "R" (Q.remove_delta t (coord ()))
    else begin
      let i = Prng.int rng !nlive in
      let p = !live.(i) in
      let (_, _, removed) as d = Q.remove_delta t p in
      report "r" d;
      drop i;
      if r = 9 then begin
        (* Put it straight back: a splice is undone by a new internal
           node with the same cube and a fresh id. *)
        let (_, added, _) as d' = Q.insert_delta t p in
        if List.length removed = 2 && List.length added = 2 then incr splices;
        report "i" d';
        push p
      end
    end;
    if step mod 250 = 0 then queries t
  done;
  Q.check_invariants t;
  shape t;
  queries t;
  (Digest.to_hex (Digest.string (Buffer.contents b)), !splices)

let test_pinned_digest () =
  List.iter
    (fun (dim, seed, expected) ->
      let hex, splices = digest_scenario ~dim ~seed in
      checkb (Printf.sprintf "%d-d scenario splices and recreates internal nodes" dim) true
        (splices > 10);
      Alcotest.(check string) (Printf.sprintf "%d-d structural digest" dim) expected hex)
    [ (2, 61, "2d3d6d0ca6af390886f310a8cd202cad"); (3, 62, "a61af02543e4ae7f1e29679f9c530e12") ]

(* ------- the arena: canonical under churn, slot reuse, memory ------- *)

module GridSet = Set.Make (struct
  type t = int array

  let compare = compare
end)

(* Every node's (cube, subtree size), sorted: equal for two trees exactly
   when they hold the same compressed quadtree, ids aside. *)
let cube_census t =
  let acc = ref [] in
  Q.iter_nodes t ~f:(fun n -> acc := (Q.node_cube n, Q.subtree_size n) :: !acc);
  List.sort compare !acc

let qcheck_churn_matches_model =
  QCheck.Test.make ~name:"churn = fresh build over a Set model (canonical, indexed)" ~count:40
    QCheck.(triple small_int (int_range 2 3) (int_range 1 150))
    (fun (seed, dim, nops) ->
      let rng = Prng.create seed in
      (* A small universe of points, a third of them near twins of another,
         so operations collide, splice internal nodes and recreate them. *)
      let universe = Array.make 40 [||] in
      for i = 0 to Array.length universe - 1 do
        universe.(i) <-
          (if i > 0 && Prng.int rng 3 = 0 then
             Array.map (fun x -> Float.min 0.999999 (x +. 1e-7)) universe.(Prng.int rng i)
           else Array.init dim (fun _ -> Prng.float rng 1.0))
      done;
      let t = Q.build ~dim (Array.sub universe 0 (Prng.int rng 10)) in
      let model = ref GridSet.empty in
      iter_points t ~f:(fun p -> model := GridSet.add (Point.to_grid p) !model);
      for _ = 1 to nops do
        let p = universe.(Prng.int rng (Array.length universe)) in
        let g = Point.to_grid p in
        if Prng.bool rng then begin
          if Q.insert t p <> not (GridSet.mem g !model) then failwith "insert disagrees with the model";
          model := GridSet.add g !model
        end
        else begin
          if Q.remove t p <> GridSet.mem g !model then failwith "remove disagrees with the model";
          model := GridSet.remove g !model
        end;
        Q.check_invariants t;
        let fresh = Q.of_sorted ~dim (Array.of_list (List.map Point.of_grid (GridSet.elements !model))) in
        if cube_census t <> cube_census fresh then failwith "tree differs from a fresh build";
        Q.iter_nodes t ~f:(fun n ->
            match Q.node_of_cube t (Q.node_cube n) with
            | Some m when Q.node_id m = Q.node_id n -> ()
            | _ -> failwith "cube index misses a node");
        Array.iter
          (fun p ->
            let g = Point.to_grid p in
            if (not (GridSet.mem g !model)) && Q.node_of_cube t (Point.grid_bits, g) <> None then
              failwith "cube index finds an absent point")
          universe
      done;
      Q.size t = GridSet.cardinal !model)

(* Cube lookup against brute force: after every update of a seeded churn,
   [node_of_cube] answers exactly what a scan over every node answers —
   for each stored cube, each cube of a superset tree (present or not),
   unaligned corners and the cells of absent points — and
   [locate_from_cube] from any stored cube containing a query is the
   suffix of the root locate that starts at that cube. *)
let qcheck_cube_lookup_brute_force =
  QCheck.Test.make ~name:"cube lookup = brute force under churn (2-d, 3-d)" ~count:30
    QCheck.(triple small_int (int_range 2 3) (int_range 1 80))
    (fun (seed, dim, nops) ->
      let rng = Prng.create seed in
      let universe = Array.make 32 [||] in
      for i = 0 to Array.length universe - 1 do
        universe.(i) <-
          (if i > 0 && Prng.int rng 3 = 0 then
             Array.map (fun x -> Float.min 0.999999 (x +. 1e-7)) universe.(Prng.int rng i)
           else Array.init dim (fun _ -> Prng.float rng 1.0))
      done;
      let superset = Q.build ~dim universe in
      let super_cubes = ref [] in
      Q.iter_nodes superset ~f:(fun n -> super_cubes := Q.node_cube n :: !super_cubes);
      let queries = Array.append universe (Workload.uniform_query_points ~seed ~n:8 ~dim) in
      let t = Q.build ~dim (Array.sub universe 0 (Prng.int rng 10)) in
      let check () =
        let stored = ref [] in
        Q.iter_nodes t ~f:(fun n -> stored := (Q.node_cube n, Q.node_id n) :: !stored);
        let brute cube = List.assoc_opt cube !stored in
        let lookup cube =
          if Option.map Q.node_id (Q.node_of_cube t cube) <> brute cube then
            failwith "node_of_cube disagrees with a scan over the nodes"
        in
        List.iter (fun (cube, _) -> lookup cube) !stored;
        List.iter lookup !super_cubes;
        List.iter
          (fun ((depth, corner), _) ->
            if depth < Point.grid_bits then begin
              let unaligned = Array.copy corner in
              unaligned.(0) <- unaligned.(0) + 1;
              if Q.node_of_cube t (depth, unaligned) <> None then
                failwith "node_of_cube finds an unaligned corner"
            end)
          !stored;
        Array.iter
          (fun q ->
            let cell = (Point.grid_bits, Point.to_grid q) in
            if brute cell = None && Q.node_of_cube t cell <> None then
              failwith "node_of_cube finds an absent point";
            let loc, path = Q.locate_ids t q in
            let rec suffix_from id = function
              | [] -> failwith "a stored cube containing the query is off the root path"
              | id' :: _ as l when id' = id -> l
              | _ :: rest -> suffix_from id rest
            in
            let g = Point.to_grid q in
            List.iter
              (fun (((depth, corner) as cube), id) ->
                let shift = Point.grid_bits - depth in
                let contains = ref true in
                Array.iteri (fun i c -> if c lsr shift <> g.(i) lsr shift then contains := false) corner;
                if !contains then
                  match Q.locate_from_cube t cube q with
                  | None -> failwith "locate_from_cube misses a stored cube containing the query"
                  | Some (loc', path') ->
                      if
                        path' <> suffix_from id path
                        || Q.node_id loc'.Q.node <> Q.node_id loc.Q.node
                        || loc'.Q.slot <> loc.Q.slot
                      then failwith "locate_from_cube is not the suffix of the root locate")
              !stored)
          queries
      in
      check ();
      for _ = 1 to nops do
        let p = universe.(Prng.int rng (Array.length universe)) in
        if Prng.bool rng then ignore (Q.insert t p) else ignore (Q.remove t p);
        check ()
      done;
      true)

let test_slot_reuse () =
  let t = Q.build ~dim:2 (Workload.uniform_points ~seed:80 ~n:500 ~dim:2) in
  let extra = Workload.uniform_points ~seed:81 ~n:60 ~dim:2 in
  let cycle () =
    Array.iter (fun p -> checkb "insert" true (Q.insert t p)) extra;
    Array.iter (fun p -> checkb "remove" true (Q.remove t p)) extra
  in
  cycle ();
  let words = Obj.reachable_words (Obj.repr t) in
  for _ = 2 to 10 do
    cycle ();
    Q.check_invariants t;
    checki "freed slots are reused" words (Obj.reachable_words (Obj.repr t))
  done

let raises_invalid f = try ignore (f ()); false with Invalid_argument _ -> true

(* A node is an id, a size-and-meta word, a link word and two grid
   coordinates per corner word: 4 words in 2-d, 5 in 3-d. *)
let test_memory_budget () =
  List.iter
    (fun (dim, node_budget, single_budget) ->
      let t = Q.build ~dim (Workload.uniform_points ~seed:1 ~n:40_000 ~dim) in
      let per_node = float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int (Q.node_count t) in
      checkb
        (Printf.sprintf "%d-d: <= %.2f words per node (%.2f)" dim node_budget per_node)
        true (per_node <= node_budget);
      let single = Obj.reachable_words (Obj.repr (Q.build ~dim [| Array.make dim 0.3 |])) in
      checkb
        (Printf.sprintf "%d-d: singleton tree <= %d words (%d)" dim single_budget single)
        true (single <= single_budget))
    [ (2, 4.05, 28); (3, 5.05, 30) ]

(* The extremes of every packed field, against brute force: grid
   coordinates 0 and 2^30 - 1 in every dimension 1-4, a diagonal chain
   whose pairs meet at every depth down to the grid's (a tree of depth
   30), and insert/remove churn that runs through recycled free slots. *)
let test_packing_edges () =
  let top = Point.grid_size - 1 in
  List.iter
    (fun dim ->
      let corners =
        List.init (1 lsl dim) (fun m -> Array.init dim (fun i -> if m land (1 lsl i) <> 0 then top else 0))
      in
      let diagonal =
        List.init Point.grid_bits (fun k -> Array.make dim (1 lsl k))
        @ [ Array.make dim (top - 1); Array.make dim (top - 2) ]
      in
      let universe = Array.of_list (corners @ diagonal) in
      let inside (depth, corner) g =
        let shift = Point.grid_bits - depth in
        Array.for_all2 (fun c x -> c lsr shift = x lsr shift) corner g
      in
      let boxes =
        [
          (Array.make dim 0, Array.make dim top);
          (Array.make dim 1, Array.make dim top);
          (Array.make dim 0, Array.make dim 1);
          (Array.make dim (1 lsl 29), Array.make dim top);
          (Array.init dim (fun i -> if i = 0 then top else 0), Array.make dim top);
        ]
      in
      let check t model =
        Q.check_invariants t;
        let stored = GridSet.elements model in
        let leaves = ref [] in
        Q.iter_nodes t ~f:(fun n ->
            let ((depth, corner) as cube) = Q.node_cube n in
            let shift = Point.grid_bits - depth in
            checkb "corner aligned and on the grid" true
              (Array.for_all (fun c -> c >= 0 && c <= top && (c lsr shift) lsl shift = c) corner);
            checki "subtree size = points in the cube"
              (List.length (List.filter (inside cube) stored))
              (Q.subtree_size n);
            if depth = Point.grid_bits then leaves := corner :: !leaves);
        checkb "leaves = the model" true (List.sort compare !leaves = stored);
        (* Off the grid, coordinate 0 would carry into coordinate 1 of a
           packed corner word and alias the cell (1, 1, ...). *)
        let off_grid = Array.init dim (fun i -> if i = 0 then 1 + Point.grid_size else if i = 1 then 0 else 1) in
        checkb "off-grid cube absent" true (Q.node_of_cube t (Point.grid_bits, off_grid) = None);
        Array.iter
          (fun g ->
            let loc, path = Q.locate t (Point.of_grid g) in
            let depth, corner = Q.node_cube loc.Q.node in
            checkb "located cube contains the query" true (inside (depth, corner) g);
            let deepest =
              List.fold_left (fun acc n -> max acc (fst (Q.node_cube n))) 0
                (List.filter (fun n -> inside (Q.node_cube n) g) path)
            in
            checki "located the deepest cube on the path" deepest depth;
            checkb "At_point exactly on stored points" (GridSet.mem g model) (loc.Q.slot = Q.At_point))
          universe;
        List.iter
          (fun (lo, hi) ->
            let within g = Array.for_all2 ( <= ) lo g && Array.for_all2 ( <= ) g hi in
            checki "range_count = brute force"
              (List.length (List.filter within stored))
              (Q.range_count t ~lo:(Point.of_grid lo) ~hi:(Point.of_grid hi)))
          boxes
      in
      let t = Q.of_sorted ~dim (Array.map Point.of_grid universe) in
      let model = ref (GridSet.of_list (Array.to_list universe)) in
      check t !model;
      checki (Printf.sprintf "%d-d diagonal tree depth" dim) Point.grid_bits (Q.depth t);
      let rng = Prng.create (100 + dim) in
      let words = ref 0 in
      for round = 1 to 6 do
        for _ = 1 to 2 * Array.length universe do
          let g = universe.(Prng.int rng (Array.length universe)) in
          if Prng.bool rng then begin
            checkb "insert = model" (not (GridSet.mem g !model)) (Q.insert t (Point.of_grid g));
            model := GridSet.add g !model
          end
          else begin
            checkb "remove = model" (GridSet.mem g !model) (Q.remove t (Point.of_grid g));
            model := GridSet.remove g !model
          end;
          check t !model
        done;
        (* Empty the tree and refill it: every slot comes off the free list. *)
        GridSet.iter (fun g -> checkb "drain" true (Q.remove t (Point.of_grid g))) !model;
        check t GridSet.empty;
        Array.iter (fun g -> checkb "refill" true (Q.insert t (Point.of_grid g))) universe;
        model := GridSet.of_list (Array.to_list universe);
        check t !model;
        let w = Obj.reachable_words (Obj.repr t) in
        if round > 1 then checki "refills reuse freed slots" !words w;
        words := w
      done)
    [ 1; 2; 3; 4 ]

(* The widest dimension the layout holds: the quadrant field sits between
   the depth and the size, and the next dimension is refused. *)
let test_layout_limits () =
  let top = Point.grid_size - 1 in
  let dim = Q.max_dim in
  let pts =
    Array.init 3 (fun k -> Point.of_grid (Array.init dim (fun i -> if (i + k) mod 3 = 0 then top else 0)))
  in
  let t = Q.of_sorted ~dim pts in
  Q.check_invariants t;
  checki "three points" 3 (Q.size t);
  let extra = Point.of_grid (Array.make dim top) in
  checkb "insert" true (Q.insert t extra);
  Q.check_invariants t;
  checki "root size" 4 (Q.subtree_size (Q.root t));
  checki "full box" 4 (Q.range_count t ~lo:(Point.of_grid (Array.make dim 0)) ~hi:extra);
  checkb "remove" true (Q.remove t extra);
  Q.check_invariants t;
  checkb "one dimension more is refused" true
    (raises_invalid (fun () -> Q.of_sorted ~dim:(dim + 1) [||]))

let test_dimension_and_containment_edges () =
  let t = Q.build ~dim:2 (Workload.uniform_points ~seed:23 ~n:200 ~dim:2) in
  let p3 = Point.create [ 0.1; 0.2; 0.3 ] in
  checkb "insert of a 3-d point raises" true (raises_invalid (fun () -> Q.insert t p3));
  checkb "remove of a 3-d point raises" true (raises_invalid (fun () -> Q.remove t p3));
  let q = Point.create [ 0.3; 0.6 ] in
  let loc, _ = Q.locate t q in
  let depth, corner = Q.node_cube loc.Q.node in
  let wrong_dim = (depth, Array.append corner [| 0 |]) in
  checkb "node_of_cube: wrong-dimension cube absent" true (Q.node_of_cube t wrong_dim = None);
  checkb "locate_from_cube: wrong-dimension cube absent" true (Q.locate_from_cube t wrong_dim q = None);
  (* Every stored cube that does not contain q is refused, not descended. *)
  let g = Point.to_grid q and refused = ref 0 in
  Q.iter_nodes t ~f:(fun n ->
      let ((depth, corner) as cube) = Q.node_cube n in
      let shift = Point.grid_bits - depth in
      if Array.exists2 (fun c x -> c lsr shift <> x lsr shift) corner g then begin
        incr refused;
        checkb "locate_from_cube: cube without q" true (Q.locate_from_cube t cube q = None)
      end);
  checkb "some stored cubes miss q" true (!refused > 0);
  Q.check_invariants t

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "duplicates collapse" `Quick test_duplicates_collapse;
    Alcotest.test_case "four corners" `Quick test_four_corners;
    Alcotest.test_case "node count linear" `Quick test_node_count_linear;
    Alcotest.test_case "diagonal input is deep" `Quick test_diagonal_is_deep;
    Alcotest.test_case "locate path structure" `Quick test_locate_contains_query;
    Alcotest.test_case "locate exact point" `Quick test_locate_exact_point;
    Alcotest.test_case "incremental = bulk (canonical)" `Quick test_incremental_matches_bulk;
    Alcotest.test_case "insert/remove roundtrip" `Quick test_insert_then_remove_roundtrip;
    Alcotest.test_case "remove all" `Quick test_remove_all;
    Alcotest.test_case "three dimensions (octree)" `Quick test_three_dimensions;
    Alcotest.test_case "nearest = brute force" `Quick test_nearest_matches_brute_force;
    Alcotest.test_case "node_of_cube lookup" `Quick test_node_of_cube_lookup;
    Alcotest.test_case "subset cubes exist in superset" `Quick test_subset_cubes_exist_in_superset;
    Alcotest.test_case "refinement soundness" `Quick test_refinement_soundness;
    Alcotest.test_case "gap refinement short (Lemma 3 flavor)" `Quick test_gap_count_small_on_random_halves;
    Alcotest.test_case "range queries" `Quick test_range_queries;
    Alcotest.test_case "range empty box rejected" `Quick test_range_empty_box_rejected;
    Alcotest.test_case "bulk build canonical + pooled" `Quick test_bulk_build_canonical_and_pooled;
    Alcotest.test_case "pinned structural digest (2-d, 3-d)" `Quick test_pinned_digest;
    Alcotest.test_case "freed slots are reused" `Quick test_slot_reuse;
    Alcotest.test_case "memory budget per node" `Quick test_memory_budget;
    Alcotest.test_case "packing edges" `Quick test_packing_edges;
    Alcotest.test_case "layout limits" `Quick test_layout_limits;
    Alcotest.test_case "dimension and containment edges" `Quick test_dimension_and_containment_edges;
    QCheck_alcotest.to_alcotest qcheck_churn_matches_model;
    QCheck_alcotest.to_alcotest qcheck_cube_lookup_brute_force;
    QCheck_alcotest.to_alcotest qcheck_build_invariants;
  ]
