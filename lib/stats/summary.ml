type t = {
  n : int;
  mean : float;
  variance : float;
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

let of_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_array: empty sample";
  Array.iter
    (fun x ->
      if Float.is_nan x then invalid_arg "Summary.of_array: NaN in sample")
    xs;
  let sum = Array.fold_left ( +. ) 0.0 xs in
  let mean = sum /. float_of_int n in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs in
  let variance = if n < 2 then 0.0 else sq /. float_of_int (n - 1) in
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  { n; mean; variance; stddev = sqrt variance; min = mn; max = mx; sum }

let of_list xs = of_array (Array.of_list xs)

let of_ints xs = of_array (Array.map float_of_int xs)

let cv t = if t.mean = 0.0 then 0.0 else t.stddev /. t.mean

let spread t = if t.min = 0.0 then infinity else t.max /. t.min
