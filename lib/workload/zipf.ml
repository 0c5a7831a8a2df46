type t = {
  n : int;
  exponent : float;
  h_integral_x1 : float;
  h_integral_n : float;
  s : float;
}

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

let create ~n ~exponent =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if exponent <= 0.0 then invalid_arg "Zipf.create: exponent must be positive";
  let e = exponent in
  let h_integral_x1 = h_integral ~e 1.5 -. 1.0 in
  let h_integral_n = h_integral ~e (float_of_int n +. 0.5) in
  let s = 2.0 -. h_integral_inverse ~e (h_integral ~e 2.5 -. h ~e 2.0) in
  { n; exponent; h_integral_x1; h_integral_n; s }

let sample t rng =
  let e = t.exponent in
  let n = float_of_int t.n in
  (* Rejection loop: draw until a candidate rank [k] is accepted. *)
  let k = ref 0.0 and accepted = ref false in
  while not !accepted do
    let u =
      t.h_integral_n
      +. (Engine.Rng.float rng 1.0 *. (t.h_integral_x1 -. t.h_integral_n))
    in
    let x = h_integral_inverse ~e u in
    k := Float.max 1.0 (Float.min n (Float.round x));
    accepted := !k -. x <= t.s || u >= h_integral ~e (!k +. 0.5) -. h ~e !k
  done;
  int_of_float !k - 1

let pmf ~n ~exponent =
  if n <= 0 then invalid_arg "Zipf.pmf: n must be positive";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** exponent)) in
  let norm = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. norm) w
