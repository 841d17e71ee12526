type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 finalizer: a bijective mixer with good avalanche.
   Inlined so that, without flambda, the [Int64] intermediates of
   [hash2]/[hash3] stay unboxed: a hash allocates nothing. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy g = { state = g.state }

let next64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g = { state = mix64 (Int64.logxor (next64 g) 0xA3EC647659359ACDL) }

let stream g i =
  if i < 0 then invalid_arg "Prng.stream: index must be non-negative";
  (* Indexed substream derivation: jump the (unmodified) base state by
     [i + 1] gammas and re-mix, as if the stream were the result of the
     (i + 1)-th split. Unlike [split] this never advances [g], so the
     mapping (base state, i) -> stream is a pure function and any worker
     can derive stream [i] without coordinating with the others. *)
  { state = mix64 (Int64.logxor (Int64.add g.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma)) 0xA3EC647659359ACDL) }

let bits g = Int64.to_int (Int64.shift_right_logical (next64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias: [bits] is uniform over
     [0, max_int]; reject the top partial block of size
     (max_int + 1) mod n. *)
  let rem = ((max_int mod n) + 1) mod n in
  let rec draw () =
    let r = bits g in
    if rem > 0 && r > max_int - rem then draw () else r mod n
  in
  draw ()

let float g x =
  let r = Int64.to_float (Int64.shift_right_logical (next64 g) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let bool g = Int64.compare (Int64.logand (next64 g) 1L) 0L <> 0

let coin g ~p =
  assert (p >= 0.0 && p <= 1.0);
  float g 1.0 < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let hash2 a b =
  let h = mix64 (Int64.add (mix64 (Int64.of_int a)) (Int64.of_int b)) in
  Int64.to_int (Int64.shift_right_logical h 2)

let[@inline] hash3_prefix a b = mix64 (Int64.add (mix64 (Int64.of_int a)) (Int64.of_int b))

let[@inline] hash3_finish p c =
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.add p (Int64.of_int c))) 2)

let hash3 a b c = hash3_finish (hash3_prefix a b) c

(* A prefix table keeps each prefix as 8 raw bytes. The primitives below
   read and write them unboxed, and [hash3_prefix]/[hash3_finish] inline
   here, so neither storing a prefix nor finishing a hash against one
   boxes an [Int64], even in a build without cross-module inlining. *)
type prefixes = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let prefixes n = Bytes.make (8 * n) '\000'

let set_prefix p i a b = set64 p (8 * i) (hash3_prefix a b)

let hash3_at p i c = hash3_finish (get64 p (8 * i)) c
