type t = { seed : int; p : float }

let create ~seed = { seed; p = 0.5 }

let biased ~seed ~p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Membership.biased: p must be in (0,1)";
  { seed; p }

let bit v ~id ~level =
  let h = Prng.hash3 v.seed id level in
  if v.p = 0.5 then h land 1 = 1
  else
    (* Use 30 bits of the hash as a uniform fraction. *)
    let frac = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0 in
    frac < v.p

let prefix v ~id ~len =
  if len < 0 || len >= 60 then invalid_arg "Membership.prefix";
  let acc = ref 0 in
  for level = 0 to len - 1 do
    acc := (!acc lsl 1) lor if bit v ~id ~level then 1 else 0
  done;
  !acc

let common_prefix v a b =
  let rec go level =
    if level >= 60 then 60
    else if bit v ~id:a ~level <> bit v ~id:b ~level then level
    else go (level + 1)
  in
  go 0
