module Prng = Skipweb_util.Prng
module Point = Skipweb_geom.Point
module Segment = Skipweb_geom.Segment

let distinct_ints ~seed ~n ~bound =
  if bound < 2 * n then invalid_arg "Workload.distinct_ints: bound too small";
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let k = Prng.int rng bound in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out.(!filled) <- k;
      incr filled
    end
  done;
  Array.sort compare out;
  out

let clustered_ints ~seed ~n ~clusters ~spread =
  if clusters < 1 || spread < 1 then invalid_arg "Workload.clustered_ints";
  let rng = Prng.create seed in
  let centers = Array.init clusters (fun _ -> Prng.int rng max_int / 2) in
  let seen = Hashtbl.create (2 * n) in
  let rec draw acc remaining attempts =
    if remaining = 0 || attempts > 20 * n then acc
    else
      let c = centers.(Prng.int rng clusters) in
      let k = c + Prng.int rng spread in
      if Hashtbl.mem seen k then draw acc remaining (attempts + 1)
      else begin
        Hashtbl.add seen k ();
        draw (k :: acc) (remaining - 1) (attempts + 1)
      end
  in
  let keys = Array.of_list (draw [] n 0) in
  Array.sort compare keys;
  keys

let query_mix ~seed ~keys ~n ~bound =
  let rng = Prng.create seed in
  Array.init n (fun _ ->
      if Array.length keys > 0 && Prng.bool rng then begin
        let k = keys.(Prng.int rng (Array.length keys)) in
        let jitter = Prng.int rng 64 - 32 in
        max 0 (min (bound - 1) (k + jitter))
      end
      else Prng.int rng bound)

let uniform_points ~seed ~n ~dim =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Array.init dim (fun _ -> Prng.float rng 1.0))

let clustered_points ~seed ~n ~dim ~clusters ~radius =
  if clusters < 1 then invalid_arg "Workload.clustered_points";
  let rng = Prng.create seed in
  let centers =
    Array.init clusters (fun _ ->
        Array.init dim (fun _ -> radius +. Prng.float rng (1.0 -. (2.0 *. radius))))
  in
  Array.init n (fun _ ->
      let c = centers.(Prng.int rng clusters) in
      Array.init dim (fun i ->
          let x = c.(i) +. Prng.float rng (2.0 *. radius) -. radius in
          Float.max 0.0 (Float.min (1.0 -. epsilon_float) x)))

let diagonal_points ~n ~dim =
  if n >= Point.grid_bits then
    invalid_arg "Workload.diagonal_points: at most grid_bits - 1 points are distinct";
  Array.init n (fun i ->
      let c = Float.pow 2.0 (float_of_int (-(i + 1))) in
      Array.make dim c)

let uniform_query_points ~seed ~n ~dim = uniform_points ~seed:(seed + 7919) ~n ~dim

let random_strings ~seed ~n ~alphabet ~len =
  if alphabet < 1 || alphabet > 26 then invalid_arg "Workload.random_strings: alphabet";
  let capacity = Float.pow (float_of_int alphabet) (float_of_int len) in
  if capacity < float_of_int (2 * n) then
    invalid_arg "Workload.random_strings: alphabet^len too small";
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  let fresh () =
    String.init len (fun _ -> Char.chr (Char.code 'a' + Prng.int rng alphabet))
  in
  Array.init n (fun _ ->
      let rec go () =
        let s = fresh () in
        if Hashtbl.mem seen s then go ()
        else begin
          Hashtbl.add seen s ();
          s
        end
      in
      go ())

let prefix_heavy_strings ~seed ~n ~alphabet =
  if alphabet < 2 then invalid_arg "Workload.prefix_heavy_strings: alphabet >= 2";
  let rng = Prng.create seed in
  Array.init n (fun i ->
      let shared = String.make i 'a' in
      let pivot = Char.chr (Char.code 'a' + 1 + Prng.int rng (alphabet - 1)) in
      let tail =
        String.init 3 (fun _ -> Char.chr (Char.code 'a' + Prng.int rng alphabet))
      in
      shared ^ String.make 1 pivot ^ tail)

let isbn_strings ~seed ~n ~publishers =
  if publishers < 1 then invalid_arg "Workload.isbn_strings";
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec go () =
        (* Zipf-ish publisher choice: smaller ids more popular. *)
        let r = Prng.float rng 1.0 in
        let publisher = int_of_float (float_of_int publishers *. r *. r) in
        let title = Prng.int rng 1_000_000 in
        let s = Printf.sprintf "978-%d-%06d" publisher title in
        if Hashtbl.mem seen s then go ()
        else begin
          Hashtbl.add seen s ();
          s
        end
      in
      go ())

let string_queries ~seed ~keys ~n =
  let rng = Prng.create seed in
  let m = Array.length keys in
  Array.init n (fun _ ->
      if m = 0 then String.init 4 (fun _ -> Char.chr (Char.code 'a' + Prng.int rng 26))
      else
        match Prng.int rng 3 with
        | 0 -> keys.(Prng.int rng m)
        | 1 ->
            let k = keys.(Prng.int rng m) in
            let l = String.length k in
            if l = 0 then k else String.sub k 0 (1 + Prng.int rng l)
        | _ ->
            let len = 1 + Prng.int rng 8 in
            String.init len (fun _ -> Char.chr (Char.code 'a' + Prng.int rng 26)))

let disjoint_segments ~seed ~n =
  let rng = Prng.create seed in
  let max_len = 0.8 /. sqrt (float_of_int (max 1 n)) in
  let xs = Hashtbl.create (4 * n) in
  let accepted = ref [] in
  let count = ref 0 in
  let attempts = ref 0 in
  let limit = 2000 * (n + 10) in
  while !count < n && !attempts < limit do
    incr attempts;
    let x0 = 0.05 +. Prng.float rng 0.9 in
    let len = (0.2 +. Prng.float rng 0.8) *. max_len in
    let x1 = x0 +. len in
    let y0 = 0.05 +. Prng.float rng 0.9 in
    let y1 = y0 +. (Prng.float rng (2.0 *. len) -. len) in
    if x1 < 0.95 && y1 > 0.05 && y1 < 0.95 && not (Hashtbl.mem xs x0) && not (Hashtbl.mem xs x1)
    then begin
      let candidate = Segment.make ~id:!count (x0, y0) (x1, y1) in
      let ok =
        List.for_all
          (fun old ->
            (not (Segment.crosses old candidate))
            &&
            (* Keep a small separation so no near-degeneracies. *)
            let (ox0, oy0), (ox1, oy1) = Segment.endpoints old in
            let far (px, py) (qx, qy) =
              Float.abs (px -. qx) > 1e-9 || Float.abs (py -. qy) > 1e-9
            in
            let (cx0, cy0), (cx1, cy1) = Segment.endpoints candidate in
            far (ox0, oy0) (cx0, cy0) && far (ox0, oy0) (cx1, cy1)
            && far (ox1, oy1) (cx0, cy0)
            && far (ox1, oy1) (cx1, cy1))
          !accepted
      in
      if ok then begin
        Hashtbl.replace xs x0 ();
        Hashtbl.replace xs x1 ();
        accepted := candidate :: !accepted;
        incr count
      end
    end
  done;
  if !count < n then
    invalid_arg (Printf.sprintf "Workload.disjoint_segments: only generated %d of %d" !count n);
  Array.of_list (List.rev !accepted)

let trapmap_query_points ~seed ~n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> (0.001 +. Prng.float rng 0.998, 0.001 +. Prng.float rng 0.998))

let zipf_cdf ~m ~s =
  if m < 1 then invalid_arg "Workload.zipf_cdf: m >= 1";
  if s <= 0.0 then invalid_arg "Workload.zipf_cdf: s > 0";
  let weights = Array.init m (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make m 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  (* Accumulating m rounded ratios can leave the last entry a few ulps
     below 1.0 (large m, or an s steep enough that tail weights underflow
     against the head), and a uniform draw landing in that gap walks the
     inverse-CDF search past the last rank. The final entry is 1.0 by
     definition; pin it. *)
  cdf.(m - 1) <- 1.0;
  cdf

(* An incremental Zipf sampler: the CDF and rank permutation are fixed at
   creation, each draw consumes exactly one float from the caller's rng.
   [zipf_queries] is a loop of draws, and the open-loop driver interleaves
   draws with its other coins — both see the same key popularity. *)
type zipf = { cdf : float array; perm : int array; zkeys : int array }

let zipf_prepare ~rng ~keys ~s =
  let m = Array.length keys in
  if m = 0 then invalid_arg "Workload.zipf_prepare: empty keys";
  if s <= 0.0 then invalid_arg "Workload.zipf_prepare: s > 0";
  (* Inverse-CDF sampling over ranks 1..m. *)
  let cdf = zipf_cdf ~m ~s in
  (* Popularity rank -> a fixed random permutation of the keys. *)
  let perm = Array.init m (fun i -> i) in
  Prng.shuffle rng perm;
  { cdf; perm; zkeys = keys }

let zipf_draw z rng =
  let m = Array.length z.zkeys in
  let u = Prng.float rng 1.0 in
  let rec find lo hi = if lo >= hi then lo else
    let mid = (lo + hi) / 2 in
    if z.cdf.(mid) < u then find (mid + 1) hi else find lo mid
  in
  z.zkeys.(z.perm.(min (m - 1) (find 0 m)))

let zipf_queries ~seed ~keys ~n ~s =
  let rng = Prng.create seed in
  let z = zipf_prepare ~rng ~keys ~s in
  Array.init n (fun _ -> zipf_draw z rng)

(* Even slots uniform over [0, bound), odd slots Zipf(s)-popular stored
   keys; an odd [total] is rounded up so both halves stay equal. *)
let mixed_queries ?(s = 1.1) ~seed ~keys ~total ~bound () =
  let half = (total + 1) / 2 in
  let z = zipf_queries ~seed:(seed + 0x21f) ~keys ~n:half ~s in
  let rng = Prng.create (seed + 0x0b5) in
  let u = Array.init half (fun _ -> Prng.int rng bound) in
  Array.init (2 * half) (fun i -> if i mod 2 = 0 then u.(i / 2) else z.(i / 2))
