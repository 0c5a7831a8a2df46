module P = Stats.Percentile

let test_median_odd () =
  Alcotest.(check (float 1e-9)) "median" 3.0 (P.quantile [| 5.0; 1.0; 3.0 |] 0.5)

let test_median_even_interpolates () =
  Alcotest.(check (float 1e-9)) "median" 2.5 (P.quantile [| 1.0; 2.0; 3.0; 4.0 |] 0.5)

let test_extremes () =
  let xs = [| 7.0; 1.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "q0 = min" 1.0 (P.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 9.0 (P.quantile xs 1.0)

let test_singleton () =
  Alcotest.(check (float 1e-9)) "single" 42.0 (P.quantile [| 42.0 |] 0.37)

let test_bad_inputs () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Percentile.quantile_sorted: empty sample") (fun () ->
      ignore (P.quantile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Percentile.quantile_sorted: q outside [0,1]") (fun () ->
      ignore (P.quantile [| 1.0 |] 1.5))

let test_quartiles_iqr () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let q1, q2, q3 = P.quartiles xs in
  Alcotest.(check (float 1e-9)) "q1" 25.0 q1;
  Alcotest.(check (float 1e-9)) "median" 50.0 q2;
  Alcotest.(check (float 1e-9)) "q3" 75.0 q3;
  Alcotest.(check (float 1e-9)) "iqr" 50.0 (P.iqr xs)

let test_tail_of () =
  let xs = Array.init 10_000 (fun i -> float_of_int (i + 1)) in
  let t = P.tail_of xs in
  Alcotest.(check bool) "p50 near 5000" true (Float.abs (t.P.p50 -. 5000.0) < 2.0);
  Alcotest.(check bool) "p99 near 9900" true (Float.abs (t.P.p99 -. 9900.0) < 3.0);
  Alcotest.(check bool) "p9999 near max" true (t.P.p9999 > 9990.0);
  Alcotest.(check (float 1e-9)) "max" 10000.0 t.P.max

let test_does_not_mutate_input () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (P.quantile xs 0.5);
  Alcotest.(check (array (float 1e-9))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let prop_monotone_in_q =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0))
        (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (fun (xs, q1, q2) ->
      let xs = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      P.quantile xs lo <= P.quantile xs hi +. 1e-9)

let test_float_compare_total_order () =
  (* Sorting uses Float.compare, a total order: negative zeros and
     extreme magnitudes land where IEEE ordering puts them, regardless
     of the polymorphic-compare representation of boxed floats. *)
  let xs = [| 0.0; -0.0; 1e308; -1e308; 5.0; -5.0 |] in
  Alcotest.(check (float 1e-9)) "q0 = most negative" (-1e308) (P.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "q1 = most positive" 1e308 (P.quantile xs 1.0)

let prop_nan_free =
  QCheck.Test.make ~name:"quantile NaN-free on NaN-free input" ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 40) (float_range (-1e12) 1e12))
        (float_bound_inclusive 1.0))
    (fun (xs, q) -> not (Float.is_nan (P.quantile (Array.of_list xs) q)))

let prop_within_range =
  QCheck.Test.make ~name:"quantile within [min, max]" ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 40) (float_range (-50.0) 50.0))
        (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let xs = Array.of_list xs in
      let v = P.quantile xs q in
      let mn = Array.fold_left min xs.(0) xs in
      let mx = Array.fold_left max xs.(0) xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

(* [quantiles] sorts with its own float heap sort; the reference sorts
   with [Array.sort Float.compare].  Few distinct values, so ties are
   the common case.  One quantile per rank reads every sorted slot. *)
let prop_matches_stdlib_sort =
  QCheck.Test.make ~name:"quantiles match an Array.sort reference" ~count:300
    QCheck.(list_of_size Gen.(1 -- 300) (map float_of_int (int_range (-20) 20)))
    (fun xs ->
      let xs = Array.of_list xs in
      let n = Array.length xs in
      let qs =
        List.init n (fun k -> if n = 1 then 0.0 else float_of_int k /. float_of_int (n - 1))
      in
      let reference = Array.copy xs in
      Array.sort Float.compare reference;
      P.quantiles xs qs = List.map (P.quantile_sorted reference) qs)

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
          Alcotest.test_case "quartiles/iqr" `Quick test_quartiles_iqr;
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
            prop_matches_stdlib_sort;
          ] );
    ]
