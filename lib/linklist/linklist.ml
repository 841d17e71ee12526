type range = Node of int | Link of int

type bound = Neg_inf | Key of int | Pos_inf

let num_ranges a = (2 * Array.length a) + 1

let encode = function Link i -> 2 * i | Node i -> (2 * i) + 1

let decode c = if c land 1 = 0 then Link (c / 2) else Node (c / 2)

let valid a r =
  let m = Array.length a in
  match r with Node i -> i >= 0 && i < m | Link i -> i >= 0 && i <= m

let span a r =
  assert (valid a r);
  let m = Array.length a in
  match r with
  | Node i -> (Key a.(i), Key a.(i))
  | Link i ->
      let lo = if i = 0 then Neg_inf else Key a.(i - 1) in
      let hi = if i = m then Pos_inf else Key a.(i) in
      (lo, hi)

let bound_le_key b q = match b with Neg_inf -> true | Key k -> k <= q | Pos_inf -> false

let key_le_bound q b = match b with Neg_inf -> false | Key k -> q <= k | Pos_inf -> true

let contains a r q =
  let lo, hi = span a r in
  bound_le_key lo q && key_le_bound q hi

(* First index with a.(i) >= q, or m; last index with a.(i) <= q, or -1.
   The one shared binary-search implementation lives with the chunked
   container. *)
let lower_bound a q = Skipweb_util.Ordseq.array_lower_bound a q

let upper_index a q = Skipweb_util.Ordseq.array_upper_index a q

let locate_code a q =
  let i = lower_bound a q in
  if i < Array.length a && a.(i) = q then (2 * i) + 1 else 2 * i

let locate a q = decode (locate_code a q)

let conflict_interval ~parent ~child r =
  assert (valid child r);
  let lo, hi = span child r in
  (* k_lo: first parent index with key >= lo; k_hi: last with key <= hi. *)
  let k_lo = match lo with Neg_inf -> 0 | Key k -> lower_bound parent k | Pos_inf -> Array.length parent in
  let k_hi =
    match hi with
    | Neg_inf -> -1
    | Key k -> upper_index parent k
    | Pos_inf -> Array.length parent - 1
  in
  (* Conflicting parent ranges: links k_lo .. k_hi+1 and nodes k_lo .. k_hi,
     i.e. codes 2*k_lo .. 2*(k_hi+1). Degenerate spans still conflict with
     the link they fall inside. *)
  if k_hi < k_lo then begin
    (* The child span contains no parent key: it lies strictly inside parent
       link k_lo. Only that link conflicts. *)
    let c = encode (Link k_lo) in
    (c, c)
  end
  else (encode (Link k_lo), encode (Link (k_hi + 1)))

let conflicts ~parent ~child r =
  let lo, hi = conflict_interval ~parent ~child r in
  let rec go c acc = if c < lo then acc else go (c - 1) (decode c :: acc) in
  go hi []

let conflict_count ~parent ~child r =
  let lo, hi = conflict_interval ~parent ~child r in
  hi - lo + 1

let intersection_size ~parent ~child r =
  let lo, hi = span child r in
  let k_lo =
    match lo with Neg_inf -> 0 | Key k -> lower_bound parent k | Pos_inf -> Array.length parent
  in
  let k_hi =
    match hi with Neg_inf -> -1 | Key k -> upper_index parent k | Pos_inf -> Array.length parent - 1
  in
  max 0 (k_hi - k_lo + 1)

let predecessor a q =
  let i = upper_index a q in
  if i >= 0 then Some a.(i) else None

let successor a q =
  let i = lower_bound a q in
  if i < Array.length a then Some a.(i) else None

let closest q ~pred ~succ =
  match (pred, succ) with
  | None, None -> None
  | Some p, None -> Some p
  | None, Some s -> Some s
  | Some p, Some s -> if q - p <= s - q then Some p else Some s

let nearest a q = closest q ~pred:(predecessor a q) ~succ:(successor a q)

let range_keys a ~lo ~hi =
  let start = lower_bound a lo in
  let last = upper_index a hi in
  let rec go i acc = if i > last then List.rev acc else go (i + 1) (a.(i) :: acc) in
  if last < start then [] else go start []

let range_codes a ~lo ~hi = (locate_code a lo, locate_code a hi)
