type fit = {
  slope : float;
  intercept : float;
  r2 : float;
  n : int;
  pearson : float;
}

let fit ~x ~y =
  let n = Array.length x in
  if n <> Array.length y then invalid_arg "Regression.fit: length mismatch";
  if n < 2 then invalid_arg "Regression.fit: need at least 2 points";
  let fn = float_of_int n in
  let mean xs = Array.fold_left ( +. ) 0.0 xs /. fn in
  let mx = mean x and my = mean y in
  let sxx = ref 0.0 and syy = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = x.(i) -. mx and dy = y.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy);
    sxy := !sxy +. (dx *. dy)
  done;
  if !sxx = 0.0 then { slope = 0.0; intercept = my; r2 = 0.0; n; pearson = 0.0 }
  else begin
    let slope = !sxy /. !sxx in
    let intercept = my -. (slope *. mx) in
    let r2, pearson =
      if !syy = 0.0 then (1.0, if !sxy >= 0.0 then 1.0 else -1.0)
      else begin
        let r = !sxy /. sqrt (!sxx *. !syy) in
        (r *. r, r)
      end
    in
    { slope; intercept; r2; n; pearson }
  end

let predict f x = f.intercept +. (f.slope *. x)
