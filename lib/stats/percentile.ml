(* The one interpolation: the order statistic at rank [q * (n - 1)] of
   an ascending sample read through [get], linear between neighbours. *)
let interpolate n get q =
  if n = 0 then invalid_arg "Percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Percentile: q outside [0,1]";
  if n = 1 then get 0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    let at_lo = get lo in
    at_lo +. (frac *. (get hi -. at_lo))
  end

let quantile_sorted xs = interpolate (Array.length xs) (Array.get xs)

(* Latencies stay below 2^53, so each read converts exactly and the
   result is bit-identical to the same formula over floats. *)
let quantile_ns xs = interpolate (Array.length xs) (fun i -> float_of_int xs.(i))

(* The same reads by rank over runs, so the two forms agree bit for bit. *)
let quantile_runs r =
  let nth = Structures.Latencies.rank_reader r in
  interpolate (Structures.Latencies.count r) (fun i -> float_of_int (nth i))

let quartiles xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  (quantile_sorted ys 0.25, quantile_sorted ys 0.5, quantile_sorted ys 0.75)

type tail = {
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  p9999 : float;
  max : float;
}

(* Landmarks in ascending order, so a runs reader moves forward only. *)
let tail q =
  let p50 = q 0.5 in
  let p90 = q 0.9 in
  let p99 = q 0.99 in
  let p999 = q 0.999 in
  let p9999 = q 0.9999 in
  { p50; p90; p99; p999; p9999; max = q 1.0 }

let tail_of xs = tail (quantile_ns xs)

let tail_of_runs r = tail (quantile_runs r)

let pp_tail fmt t =
  Format.fprintf fmt "p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g p99.99=%.4g max=%.4g"
    t.p50 t.p90 t.p99 t.p999 t.p9999 t.max
