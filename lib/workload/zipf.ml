type t = {
  n : int;
  exponent : float;
  h_integral_x1 : float;
  h_integral_n : float;
  s : float;
  guide : Bytes.t;
      (* Per bucket of the uniform draw, a native-endian int32: the rank
         every draw in it returns, or -1 if it needs the rejection step.
         Every access is at [4 * j] for a bucket [j]. *)
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* H(x) = integral of 1/t^e from 1 to x, shifted per Hörmann's paper. *)
let[@inline] h_integral ~e x =
  let log_x = log x in
  if Float.abs (e -. 1.0) < 1e-12 then log_x
  else begin
    let t = (1.0 -. e) *. log_x in
    (* expm1(t) / (1 - e) *)
    Float.expm1 t /. (1.0 -. e)
  end

let[@inline] h ~e x = exp (-.e *. log x)

let[@inline] h_integral_inverse ~e x =
  if Float.abs (e -. 1.0) < 1e-12 then exp x
  else begin
    let t = x *. (1.0 -. e) in
    (* Clamp to keep log1p's argument > -1 under rounding. *)
    let t = Float.max t (-1.0 +. 1e-15) in
    exp (Float.log1p t /. (1.0 -. e))
  end

(* [Rng.float rng 1.0] is [r / 2^53] for 53 uniform bits [r]; bucket [j]
   holds the draws whose top [guide_bits] bits are [j]. *)
let guide_bits = 14

let draw_scale = 9007199254740992.0 (* 2^53 *)

let bucket_scale = Float.of_int (1 lsl guide_bits)

(* Bucket [j] holds the draws [r] in [j * span, (j + 1) * span).  It
   stores rank [k - 1] only when the candidates at [r = j * span] and at
   the next bucket's first draw both round to [k] in [1, n] and pass the
   squeeze [k - x <= s], each by a relative margin.  [u] is monotone in
   the draw (a product and a sum of correctly rounded operations), and
   [h_integral_inverse] is increasing to within a few ulps, far inside
   the margin, so every candidate of the bucket lies between those two,
   rounds to the same [k] and is accepted on the squeeze: [sample]'s
   first candidate there is [k]. *)
let build_guide ~n ~e ~h_integral_x1 ~h_integral_n ~s =
  let margin = 1e-9 in
  (* Ranks past the int32 range are left to the rejection step. *)
  let k_max = float_of_int (min n (Int32.to_int Int32.max_int)) in
  let buckets = 1 lsl guide_bits in
  let span = 1 lsl (53 - guide_bits) in
  (* The candidate [sample] computes from the draw [r / 2^53]. *)
  let x_at r =
    let f = float_of_int r /. draw_scale in
    h_integral_inverse ~e (h_integral_n +. (f *. (h_integral_x1 -. h_integral_n)))
  in
  (* Above [k - s] (the squeeze) and [k - 1/2], below [k + 1/2]. *)
  let below = Float.min s 0.5 in
  let settled x k =
    let slack = margin *. Float.max 1.0 k in
    x >= k -. below +. slack && x <= k +. 0.5 -. slack
  in
  let guide = Bytes.create (4 * buckets) in
  let x = ref (x_at 0) in
  for j = 0 to buckets - 1 do
    let x_next = x_at ((j + 1) * span) in
    let k = Float.round !x in
    let rank =
      if k >= 1.0 && k <= k_max && settled !x k && settled x_next k then int_of_float k - 1
      else -1
    in
    set32 guide (4 * j) (Int32.of_int rank);
    x := x_next
  done;
  guide

let build ~n ~exponent =
  let e = exponent in
  let h_integral_x1 = h_integral ~e 1.5 -. 1.0 in
  let h_integral_n = h_integral ~e (float_of_int n +. 0.5) in
  let s = 2.0 -. h_integral_inverse ~e (h_integral ~e 2.5 -. h ~e 2.0) in
  let guide = build_guide ~n ~e ~h_integral_x1 ~h_integral_n ~s in
  { n; exponent; h_integral_x1; h_integral_n; s; guide }

(* A sampler is immutable once built (nothing writes [guide] again), so
   every caller with the same shape shares one: a figure builds the same
   few (n, exponent) pairs for every trial. *)
let shared : (int * float, t) Memo.t = Memo.create ~bound:64

let create ~n ~exponent =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if not (exponent > 0.0 && Float.is_finite exponent) then
    invalid_arg "Zipf.create: exponent must be positive and finite";
  Memo.find_or_build shared (n, exponent) (fun () -> build ~n ~exponent)

(* One candidate per call: a guided bucket answers at once; otherwise
   Hörmann's rejection-inversion step, drawing again on rejection. *)
let rec sample t rng =
  let f = Engine.Rng.float rng 1.0 in
  let rank = Int32.to_int (get32 t.guide (4 * int_of_float (f *. bucket_scale))) in
  if rank >= 0 then rank
  else begin
    let e = t.exponent in
    let u = t.h_integral_n +. (f *. (t.h_integral_x1 -. t.h_integral_n)) in
    let x = h_integral_inverse ~e u in
    let k = Float.max 1.0 (Float.min (float_of_int t.n) (Float.round x)) in
    if k -. x <= t.s || u >= h_integral ~e (k +. 0.5) -. h ~e k then int_of_float k - 1
    else sample t rng
  end

let pmf ~n ~exponent =
  if n <= 0 then invalid_arg "Zipf.pmf: n must be positive";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** exponent)) in
  let norm = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. norm) w
