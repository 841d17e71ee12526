(* Chunked sorted-sequence engine. See the interface for the contract;
   the representation notes live here.

   Keys sit in sorted order across [nchunks] chunks; chunk [j] is the
   first [clen.(j)] cells of [chunk.(j)] and [cmax.(j)] caches its last
   element. [fen] is a 1-based Fenwick tree over the chunk lengths, so a
   global rank is a chunk prefix-count plus an in-chunk binary search.
   Chunks split at [2 * target] and merge back when they fall under
   [target / 4]; [target] tracks √n, refreshed by a full O(n) re-chunk
   whenever the size drifts 4× from [anchor] (the size at the last
   re-chunk), so every structural cost is O(√n) worst-case and O(1)
   amortized per update. *)

(* ---------- shared sorted-array binary searches ---------- *)

(* The hot-path form: the live length is passed directly, so a chunk
   search boxes no [?len]. *)
let lower_bound_in (a : int array) len k =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let array_lower_bound ?len (a : int array) k =
  lower_bound_in a (match len with Some l -> l | None -> Array.length a) k

(* One round halves every open search: [out.(i)] is its base and
   [width.(i)] its window, the lower bound lying in [base, base + width].
   The step is branch-free, so a mispredicted comparison of one search
   does not flush the loads the other searches have in flight. The
   rounds read without bounds checks, which cost about 0.3 µs of a 1-d
   query (EXPERIMENTS.md, "Every level's search in one pass"): [i < m]
   indexes the three arrays of length m, and a probe [base + half] lies
   below [base + width <= lens.(i) <= Array.length arrays.(i)], checked
   on entry. *)
let lower_bounds (arrays : int array array) (lens : int array) k (out : int array) =
  let m = Array.length arrays in
  if Array.length lens <> m || Array.length out <> m then
    invalid_arg "Ordseq.lower_bounds: arrays, lens and out differ in length";
  let width = Array.make m 0 and open_ = ref 0 in
  for i = 0 to m - 1 do
    let n = lens.(i) in
    if n < 0 || n > Array.length arrays.(i) then invalid_arg "Ordseq.lower_bounds: len out of range";
    out.(i) <- 0;
    width.(i) <- n;
    if n > 1 then incr open_
  done;
  while !open_ > 0 do
    open_ := 0;
    for i = 0 to m - 1 do
      let n = Array.unsafe_get width i in
      if n > 1 then begin
        let half = n lsr 1 and b = Array.unsafe_get out i in
        let below = Array.unsafe_get (Array.unsafe_get arrays i) (b + half) < k in
        Array.unsafe_set out i (b + (half land - Bool.to_int below));
        Array.unsafe_set width i (n - half);
        if n - half > 1 then incr open_
      end
    done
  done;
  for i = 0 to m - 1 do
    if width.(i) = 1 then begin
      let b = out.(i) in
      out.(i) <- b + Bool.to_int (arrays.(i).(b) < k)
    end
  done

let array_upper_index ?len (a : int array) k =
  let lo = ref 0 and hi = ref (match len with Some l -> l | None -> Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let array_insert_at (a : int array) i v =
  let n = Array.length a in
  if i < 0 || i > n then invalid_arg "Ordseq.array_insert_at: index out of range";
  let b = Array.make (n + 1) v in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove_at (a : int array) i =
  let n = Array.length a in
  if i < 0 || i >= n then invalid_arg "Ordseq.array_remove_at: index out of range";
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* ---------- representation ---------- *)

type t = {
  mutable chunk : int array array;
  mutable clen : int array;
  mutable cmax : int array;
  mutable nchunks : int;
  mutable total : int;
  mutable fen : int array;  (* 1-based Fenwick over clen.(0..nchunks-1) *)
  mutable target : int;
  mutable anchor : int;  (* total at the last re-chunk *)
}

let min_target = 8

let isqrt n =
  if n <= 0 then 0
  else begin
    let r = ref (int_of_float (Float.sqrt (float_of_int n))) in
    while (!r + 1) * (!r + 1) <= n do incr r done;
    while !r * !r > n do decr r done;
    !r
  end

let target_for n = max min_target (isqrt n)

let create () =
  {
    chunk = Array.make 4 [||];
    clen = Array.make 4 0;
    cmax = Array.make 4 0;
    nchunks = 0;
    total = 0;
    fen = Array.make 8 0;
    target = min_target;
    anchor = 0;
  }

let length t = t.total

(* ---------- Fenwick index over chunk lengths ---------- *)

let fen_rebuild t =
  let m = t.nchunks in
  if Array.length t.fen < m + 1 then t.fen <- Array.make (max (m + 1) (2 * Array.length t.fen)) 0
  else Array.fill t.fen 0 (m + 1) 0;
  for i = 1 to m do
    t.fen.(i) <- t.fen.(i) + t.clen.(i - 1);
    let j = i + (i land -i) in
    if j <= m then t.fen.(j) <- t.fen.(j) + t.fen.(i)
  done

let fen_add t j d =
  let i = ref (j + 1) in
  while !i <= t.nchunks do
    t.fen.(!i) <- t.fen.(!i) + d;
    i := !i + (!i land - !i)
  done

(* Sum of the lengths of chunks 0 .. j-1. *)
let fen_prefix t j =
  let s = ref 0 and i = ref j in
  while !i > 0 do
    s := !s + t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* ---------- chunk-table slot management ---------- *)

let ensure_slot_capacity t =
  if t.nchunks = Array.length t.chunk then begin
    let cap = 2 * Array.length t.chunk in
    let chunk = Array.make cap [||] and clen = Array.make cap 0 and cmax = Array.make cap 0 in
    Array.blit t.chunk 0 chunk 0 t.nchunks;
    Array.blit t.clen 0 clen 0 t.nchunks;
    Array.blit t.cmax 0 cmax 0 t.nchunks;
    t.chunk <- chunk;
    t.clen <- clen;
    t.cmax <- cmax
  end

let open_slot t j =
  ensure_slot_capacity t;
  for i = t.nchunks downto j + 1 do
    t.chunk.(i) <- t.chunk.(i - 1);
    t.clen.(i) <- t.clen.(i - 1);
    t.cmax.(i) <- t.cmax.(i - 1)
  done;
  t.nchunks <- t.nchunks + 1

let close_slot t j =
  for i = j to t.nchunks - 2 do
    t.chunk.(i) <- t.chunk.(i + 1);
    t.clen.(i) <- t.clen.(i + 1);
    t.cmax.(i) <- t.cmax.(i + 1)
  done;
  t.nchunks <- t.nchunks - 1

let grow_chunk t j needed =
  let c = t.chunk.(j) in
  if Array.length c < needed then begin
    let nc = Array.make (max needed (2 * max 1 (Array.length c))) 0 in
    Array.blit c 0 nc 0 t.clen.(j);
    t.chunk.(j) <- nc
  end

(* ---------- bulk load / re-chunk ---------- *)

let iter f t =
  for j = 0 to t.nchunks - 1 do
    let c = t.chunk.(j) and len = t.clen.(j) in
    for i = 0 to len - 1 do
      f c.(i)
    done
  done

let to_array t =
  let out = Array.make t.total 0 in
  let pos = ref 0 in
  iter
    (fun v ->
      out.(!pos) <- v;
      incr pos)
    t;
  out

(* Re-chunk from the first [m] cells of [a] (not retained). *)
let load t a m =
  t.target <- target_for m;
  let tgt = t.target in
  let nch = if m = 0 then 0 else (m + tgt - 1) / tgt in
  let slots = max 4 nch in
  t.chunk <- Array.make slots [||];
  t.clen <- Array.make slots 0;
  t.cmax <- Array.make slots 0;
  for j = 0 to nch - 1 do
    let lo = j * tgt in
    let len = min tgt (m - lo) in
    let c = Array.make (2 * tgt) 0 in
    Array.blit a lo c 0 len;
    t.chunk.(j) <- c;
    t.clen.(j) <- len;
    t.cmax.(j) <- c.(len - 1)
  done;
  t.nchunks <- nch;
  t.total <- m;
  t.anchor <- m;
  fen_rebuild t

let maybe_rechunk t =
  if t.total >= 4 * max 16 t.anchor || (t.anchor > 64 && 4 * t.total <= t.anchor) then begin
    let a = to_array t in
    load t a t.total
  end

(* ---------- structural updates ---------- *)

let split t j =
  let c = t.chunk.(j) in
  let len = t.clen.(j) in
  let half = len / 2 in
  let right_len = len - half in
  let rc = Array.make (max (2 * t.target) right_len) 0 in
  Array.blit c half rc 0 right_len;
  open_slot t (j + 1);
  t.chunk.(j + 1) <- rc;
  t.clen.(j + 1) <- right_len;
  t.cmax.(j + 1) <- rc.(right_len - 1);
  t.clen.(j) <- half;
  t.cmax.(j) <- c.(half - 1);
  fen_rebuild t

let try_merge t j =
  let nb =
    if j = 0 then 1
    else if j = t.nchunks - 1 then j - 1
    else if t.clen.(j - 1) <= t.clen.(j + 1) then j - 1
    else j + 1
  in
  if t.clen.(j) + t.clen.(nb) < 2 * t.target then begin
    let l = min j nb and r = max j nb in
    grow_chunk t l (t.clen.(l) + t.clen.(r));
    Array.blit t.chunk.(r) 0 t.chunk.(l) t.clen.(l) t.clen.(r);
    t.clen.(l) <- t.clen.(l) + t.clen.(r);
    t.cmax.(l) <- t.cmax.(r);
    close_slot t r;
    fen_rebuild t
  end

(* Seed the first chunk of an empty store with one element. *)
let first_elem t v =
  open_slot t 0;
  let c = Array.make (2 * t.target) 0 in
  c.(0) <- v;
  t.chunk.(0) <- c;
  t.clen.(0) <- 1;
  t.cmax.(0) <- v;
  t.total <- 1;
  fen_rebuild t

(* Insert [v] at offset [p] of chunk [j] (0 <= p <= clen). *)
let ins t j p v =
  let len = t.clen.(j) in
  grow_chunk t j (len + 1);
  let c = t.chunk.(j) in
  Array.blit c p c (p + 1) (len - p);
  c.(p) <- v;
  t.clen.(j) <- len + 1;
  if p = len then t.cmax.(j) <- v;
  t.total <- t.total + 1;
  fen_add t j 1;
  if t.clen.(j) >= 2 * t.target then split t j;
  maybe_rechunk t

(* Delete the element at offset [p] of chunk [j]. *)
let del t j p =
  let c = t.chunk.(j) in
  let len = t.clen.(j) in
  Array.blit c (p + 1) c p (len - 1 - p);
  t.clen.(j) <- len - 1;
  t.total <- t.total - 1;
  fen_add t j (-1);
  if t.clen.(j) = 0 then begin
    close_slot t j;
    fen_rebuild t
  end
  else begin
    if p = len - 1 then t.cmax.(j) <- c.(len - 2);
    if 4 * t.clen.(j) < t.target && t.nchunks > 1 then try_merge t j
  end;
  maybe_rechunk t

(* ---------- sorted interface ---------- *)

(* First chunk whose maximum is >= k (= nchunks when k exceeds every
   stored key). *)
let chunk_search t k =
  let lo = ref 0 and hi = ref t.nchunks in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.cmax.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

let of_sorted_array a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Ordseq.of_sorted_array: not strictly increasing"
  done;
  let t = create () in
  load t a n;
  t

(* [load] copies, so Presort returning [a] itself for sorted input cannot
   alias the caller's array. *)
let of_array ?pool a =
  let a = Presort.sorted_distinct ?pool ~cmp:Int.compare a in
  let t = create () in
  load t a (Array.length a);
  t

let lower_bound t k =
  if t.nchunks = 0 then 0
  else
    let j = chunk_search t k in
    if j = t.nchunks then t.total else fen_prefix t j + lower_bound_in t.chunk.(j) t.clen.(j) k

type hit = { rank : int; stored : bool; pred : int; succ : int }

let chunk_count t = t.nchunks
let maxima t = t.cmax
let chunk t j = t.chunk.(j)
let chunk_length t j = t.clen.(j)

(* The neighbours come from the located chunk, or from the previous
   chunk's cached maximum when k sorts first in its chunk, so no
   Fenwick descent is needed. *)
let hit_at t ~chunk:j ~offset:p k =
  let nch = t.nchunks in
  if nch = 0 then { rank = 0; stored = false; pred = min_int; succ = max_int }
  else if j = nch then { rank = t.total; stored = false; pred = t.cmax.(nch - 1); succ = max_int }
  else
    let c = t.chunk.(j) in
    (* cmax.(j) >= k, so p is inside the chunk. *)
    let succ = c.(p) in
    let pred = if p > 0 then c.(p - 1) else if j > 0 then t.cmax.(j - 1) else min_int in
    { rank = fen_prefix t j + p; stored = succ = k; pred; succ }

(* One chunk search and one in-chunk search. *)
let search t k =
  let j = chunk_search t k in
  hit_at t ~chunk:j ~offset:(if j = t.nchunks then 0 else lower_bound_in t.chunk.(j) t.clen.(j) k) k

let insert t k =
  if t.nchunks = 0 then begin
    first_elem t k;
    true
  end
  else begin
    let j = chunk_search t k in
    let j = if j = t.nchunks then j - 1 else j in
    let p = lower_bound_in t.chunk.(j) t.clen.(j) k in
    if p < t.clen.(j) && t.chunk.(j).(p) = k then false
    else begin
      ins t j p k;
      true
    end
  end

let remove t k =
  if t.nchunks = 0 then false
  else begin
    let j = chunk_search t k in
    if j = t.nchunks then false
    else
      let p = lower_bound_in t.chunk.(j) t.clen.(j) k in
      if t.chunk.(j).(p) <> k then false
      else begin
        del t j p;
        true
      end
  end

(* ---------- batch insert ---------- *)

(* The whole batch is checked before any key lands, so a rejected batch
   leaves the sequence as it was. *)
let insert_batch ?pool:_ t ks =
  for i = 1 to Array.length ks - 1 do
    if ks.(i - 1) >= ks.(i) then invalid_arg "Ordseq.insert_batch: batch not strictly increasing"
  done;
  Array.fold_left (fun n k -> if insert t k then n + 1 else n) 0 ks

let chunk_lengths t = Array.init t.nchunks (fun j -> t.clen.(j))

(* ---------- invariant checks ---------- *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.nchunks < 0 || t.nchunks > Array.length t.chunk then fail "Ordseq: chunk table bounds";
  let sum = ref 0 in
  let prev = ref min_int in
  for j = 0 to t.nchunks - 1 do
    let len = t.clen.(j) in
    if len <= 0 then fail "Ordseq: empty chunk %d" j;
    if len > Array.length t.chunk.(j) then fail "Ordseq: chunk %d overflows its array" j;
    if t.cmax.(j) <> t.chunk.(j).(len - 1) then fail "Ordseq: stale cmax at chunk %d" j;
    for i = 0 to len - 1 do
      let v = t.chunk.(j).(i) in
      if v <= !prev && not (j = 0 && i = 0) then fail "Ordseq: order broken at chunk %d.%d" j i;
      prev := v
    done;
    sum := !sum + len
  done;
  if !sum <> t.total then fail "Ordseq: total %d but chunks hold %d" t.total !sum;
  for j = 0 to t.nchunks do
    let direct = ref 0 in
    for i = 0 to j - 1 do
      direct := !direct + t.clen.(i)
    done;
    if fen_prefix t j <> !direct then fail "Ordseq: Fenwick prefix drift at %d" j
  done
