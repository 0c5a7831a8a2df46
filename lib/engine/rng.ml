(* xoshiro256++ state: four 64-bit words at byte offsets 0, 8, 16, 24.
   Bytes rather than [mutable int64] fields, so that reading and writing
   the state boxes nothing.  Every access is at a fixed offset inside the
   32 bytes each constructor allocates, so the unchecked primitives are
   safe; they use the native byte order, which no caller can observe. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64's output function; SplitMix64 is used only to expand
   seeds into xoshiro state. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The SplitMix64 state advances by the golden gamma before each of the
   four outputs, so output [i] mixes [seed + (i + 1) * gamma]. *)
let[@inline] fill t seed =
  for i = 0 to 3 do
    let z = Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) in
    set64 t (8 * i) (mix64 z)
  done

let[@inline] of_seed64 seed =
  let t = Bytes.create 32 in
  fill t seed;
  t

let create seed = of_seed64 (Int64.of_int seed)

let reseed t seed = fill t (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

let copy = Bytes.copy

(* OCaml ints hold 62 value bits; keep the top two off. *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (nonneg t) in
  let v = ref (!r mod bound) in
  while !r - !v > max_int - bound + 1 do
    r := nonneg t;
    v := !r mod bound
  done;
  !v

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  (* 53 random bits mapped to [0, 1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0)

let bool t p = float t 1.0 < p

(* A draw from (0, 1): zero is redrawn. *)
let[@inline] nonzero t =
  let u = ref (float t 1.0) in
  while not (!u > 0.0) do
    u := float t 1.0
  done;
  !u

let gaussian t ~mu ~sigma =
  let u1 = nonzero t in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] jitter t eps = 1.0 -. eps +. float t (2.0 *. eps)

let exponential t ~mean = -.mean *. log (nonzero t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
