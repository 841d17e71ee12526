(* The one sort-and-dedup in the libraries. See presort.mli for the
   pinned semantics.

   The pooled path cuts the copy into at most [jobs] static segments,
   sorts each on its own domain, then combines them with deterministic
   pairwise merge rounds. The sorted-distinct output of a multiset is
   unique whatever the segmentation, so the parallel path is
   bit-identical to the sequential one. *)

(* Does [ok] hold of every adjacent pair of [a]? *)
let adjacent ok a =
  let n = Array.length a in
  let all = ref true in
  let i = ref 1 in
  while !all && !i < n do
    if not (ok a.(!i - 1) a.(!i)) then all := false;
    incr i
  done;
  !all

let strictly_sorted ~cmp a = adjacent (fun x y -> cmp x y < 0) a

(* In-place dedup of a [cmp]-sorted prefix; returns the live length.
   Keeps the first element of every run of equals. *)
let dedup_sorted ~cmp a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if cmp a.(i) a.(!m - 1) <> 0 then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    !m
  end

let sorted_copy ?pool ~cmp a =
  let a = Array.copy a in
  let n = Array.length a in
  let parts =
    match pool with
    | Some p when n >= 1_000_000 && Pool.jobs p > 1 -> min (Pool.jobs p) (n / 4096)
    | _ -> 1
  in
  if parts < 2 then begin
    Array.sort cmp a;
    a
  end
  else begin
    let base = n / parts and extra = n mod parts in
    let segs =
      Array.init parts (fun i ->
          let start = (i * base) + min i extra in
          let len = base + if i < extra then 1 else 0 in
          Array.sub a start len)
    in
    (match pool with
    | Some p -> Pool.parallel_for p ~lo:0 ~hi:parts (fun i -> Array.sort cmp segs.(i))
    | None -> Array.iter (Array.sort cmp) segs);
    (* Segments are non-empty (parts <= n / 4096), so x.(0) is a valid
       fill element for the merged array. *)
    let merge2 x y =
      let lx = Array.length x and ly = Array.length y in
      let out = Array.make (lx + ly) x.(0) in
      let i = ref 0 and j = ref 0 and o = ref 0 in
      while !i < lx && !j < ly do
        if cmp x.(!i) y.(!j) <= 0 then begin
          out.(!o) <- x.(!i);
          incr i
        end
        else begin
          out.(!o) <- y.(!j);
          incr j
        end;
        incr o
      done;
      Array.blit x !i out !o (lx - !i);
      Array.blit y !j out (!o + lx - !i) (ly - !j);
      out
    in
    let rec rounds = function
      | [] -> [||]
      | [ s ] -> s
      | segs ->
          let rec pair = function
            | x :: y :: rest -> merge2 x y :: pair rest
            | tail -> tail
          in
          rounds (pair segs)
    in
    rounds (Array.to_list segs)
  end

let sorted_distinct ?pool ~cmp a =
  if strictly_sorted ~cmp a then a
  else begin
    let copy = sorted_copy ?pool ~cmp a in
    let m = dedup_sorted ~cmp copy in
    if m = Array.length copy then copy else Array.sub copy 0 m
  end

(* Already non-decreasing input, the common case for keys generated
   sorted, costs one pass instead of a sort. *)
let order ~cmp a =
  let p = Array.init (Array.length a) Fun.id in
  if not (adjacent (fun x y -> cmp x y <= 0) a) then
    Array.stable_sort (fun i j -> cmp a.(i) a.(j)) p;
  p
