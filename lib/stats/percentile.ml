let quantile_sorted xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Percentile.quantile_sorted: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Percentile.quantile_sorted: q outside [0,1]";
  if n = 1 then xs.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

(* Heap sort in place, specialised to [float array] in [Float.compare]
   order.  [Array.sort] boxes every float it reads and calls its
   comparison through a closure; [Array.stable_sort] allocates half the
   array as scratch, which raises the peak RSS of a run that sorts a few
   hundred thousand latencies.  [sift] loops instead of recursing
   because a float passed as an argument is boxed.  Only elements
   [Float.compare] calls equal (NaNs; [0.] and [-0.]) may end up in
   another order than a stable sort's. *)
let sort_in_place (a : float array) =
  let sift len i =
    let x = a.(i) in
    let hole = ref i and continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      if l >= len then continue := false
      else begin
        let c =
          if l + 1 < len && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l
        in
        if Float.compare a.(c) x > 0 then begin
          a.(!hole) <- a.(c);
          hole := c
        end
        else continue := false
      end
    done;
    a.(!hole) <- x
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift n i
  done;
  for len = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(len);
    a.(len) <- top;
    sift len 0
  done

let sorted_copy xs =
  let ys = Array.copy xs in
  sort_in_place ys;
  ys

let quantile xs q = quantile_sorted (sorted_copy xs) q

let quantiles xs qs =
  let ys = sorted_copy xs in
  List.map (quantile_sorted ys) qs

let quartiles xs =
  match quantiles xs [ 0.25; 0.5; 0.75 ] with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

type tail = {
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  p9999 : float;
  max : float;
}

let tail_of xs =
  let ys = sorted_copy xs in
  let q = quantile_sorted ys in
  {
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
    p999 = q 0.999;
    p9999 = q 0.9999;
    max = ys.(Array.length ys - 1);
  }

let pp_tail fmt t =
  Format.fprintf fmt "p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g p99.99=%.4g max=%.4g"
    t.p50 t.p90 t.p99 t.p999 t.p9999 t.max
