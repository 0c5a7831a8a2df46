module P = Stats.Percentile

let test_median_odd () =
  Alcotest.(check (float 1e-9)) "median" 3.0 (P.quantile_ns [| 1; 3; 5 |] 0.5)

let test_median_even_interpolates () =
  Alcotest.(check (float 1e-9)) "median" 2.5
    (P.quantile_sorted [| 1.0; 2.0; 3.0; 4.0 |] 0.5)

let test_extremes () =
  let xs = [| 1; 7; 9 |] in
  Alcotest.(check (float 1e-9)) "q0 = min" 1.0 (P.quantile_ns xs 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 9.0 (P.quantile_ns xs 1.0)

let test_singleton () =
  Alcotest.(check (float 1e-9)) "single" 42.0 (P.quantile_ns [| 42 |] 0.37)

let test_bad_inputs () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Percentile: empty sample") (fun () ->
      ignore (P.quantile_sorted [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Percentile: q outside [0,1]") (fun () ->
      ignore (P.quantile_ns [| 1 |] 1.5))

let test_quartiles () =
  let xs = Array.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  let q1, q2, q3 = P.quartiles xs in
  Alcotest.(check (float 1e-9)) "q1" 25.0 q1;
  Alcotest.(check (float 1e-9)) "median" 50.0 q2;
  Alcotest.(check (float 1e-9)) "q3" 75.0 q3

let test_tail_of () =
  let xs = Array.init 10_000 (fun i -> i + 1) in
  let t = P.tail_of xs in
  Alcotest.(check bool) "p50 near 5000" true (Float.abs (t.P.p50 -. 5000.0) < 2.0);
  Alcotest.(check bool) "p99 near 9900" true (Float.abs (t.P.p99 -. 9900.0) < 3.0);
  Alcotest.(check bool) "p9999 near max" true (t.P.p9999 > 9990.0);
  Alcotest.(check (float 1e-9)) "max" 10000.0 t.P.max

let test_does_not_mutate_input () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (P.quartiles xs);
  Alcotest.(check (array (float 1e-9))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_float_compare_total_order () =
  (* Quartiles sort with Float.compare, a total order: negative zeros
     and extreme magnitudes land where IEEE ordering puts them. *)
  let q1, q2, q3 = P.quartiles [| 0.0; -0.0; 1e308; -1e308; 5.0; -5.0 |] in
  Alcotest.(check (float 1e-9)) "q1" (-3.75) q1;
  Alcotest.(check (float 1e-9)) "median" 0.0 q2;
  Alcotest.(check (float 1e-9)) "q3" 3.75 q3

let ascending xs =
  let a = Array.of_list xs in
  Array.sort Int.compare a;
  a

let prop_monotone_in_q =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 40) (int_bound 1_000_000))
        (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (fun (xs, q1, q2) ->
      let xs = ascending xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      P.quantile_ns xs lo <= P.quantile_ns xs hi)

let prop_within_range =
  QCheck.Test.make ~name:"quantile within [min, max]" ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 40) (int_bound 1_000_000)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let xs = ascending xs in
      let v = P.quantile_ns xs q in
      v >= float_of_int xs.(0) && v <= float_of_int xs.(Array.length xs - 1))

(* Integer latencies below 2^53 convert exactly, so the int reader gives
   the float formula's bits: what every printed tail relied on when
   latencies were floats. *)
let prop_ns_matches_float_formula =
  QCheck.Test.make ~name:"quantile_ns = quantile_sorted over the same floats"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300)
           (oneof [ int_bound 20; int_bound 1_000_000_000; int_range 0 (1 lsl 52) ]))
        (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let xs = ascending xs in
      Int64.bits_of_float (P.quantile_ns xs q)
      = Int64.bits_of_float (P.quantile_sorted (Array.map float_of_int xs) q))

let prop_nan_free =
  QCheck.Test.make ~name:"quartiles NaN-free on NaN-free input" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (float_range (-1e12) 1e12))
    (fun xs ->
      let q1, q2, q3 = P.quartiles (Array.of_list xs) in
      not (Float.is_nan q1 || Float.is_nan q2 || Float.is_nan q3))

let () =
  Alcotest.run "percentile"
    [
      ( "unit",
        [
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even_interpolates;
          Alcotest.test_case "extremes" `Quick test_extremes;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail_of" `Quick test_tail_of;
          Alcotest.test_case "no mutation" `Quick test_does_not_mutate_input;
          Alcotest.test_case "total order" `Quick test_float_compare_total_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_monotone_in_q;
            prop_nan_free;
            prop_within_range;
            prop_ns_matches_float_formula;
          ] );
    ]
