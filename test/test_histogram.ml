module H = Stats.Histogram

let test_create_validation () =
  Alcotest.check_raises "bad range" (Invalid_argument "Histogram.create: need 0 < lo < hi")
    (fun () -> ignore (H.create ~lo:0.0 ~hi:10.0 ()))

let test_count_and_mean () =
  let h = H.create ~lo:1.0 ~hi:1000.0 () in
  List.iter (H.add h) [ 10.0; 20.0; 30.0 ];
  Alcotest.(check int) "count" 3 (H.count h);
  Alcotest.(check (float 1e-9)) "mean exact" 20.0 (H.mean h);
  Alcotest.(check (float 1e-9)) "min" 10.0 (H.min_seen h);
  Alcotest.(check (float 1e-9)) "max" 30.0 (H.max_seen h)

let test_quantile_accuracy () =
  (* Log-spaced bins give bounded relative error. *)
  let h = H.create ~buckets_per_decade:40 ~lo:1.0 ~hi:1e6 () in
  let rng = Engine.Rng.create 3 in
  let xs = Array.init 50_000 (fun _ -> Engine.Rng.exponential rng ~mean:1000.0 +. 1.0) in
  Array.iter (H.add h) xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let exact = Stats.Percentile.quantile_sorted sorted 0.99 in
  let approx = H.quantile h 0.99 in
  let rel = Float.abs (approx -. exact) /. exact in
  Alcotest.(check bool) (Printf.sprintf "p99 rel err %.3f < 0.1" rel) true (rel < 0.1)

let test_overflow_underflow () =
  let h = H.create ~lo:10.0 ~hi:100.0 () in
  H.add h 1.0;
  H.add h 1e9;
  Alcotest.(check int) "counted" 2 (H.count h);
  Alcotest.(check (float 1e-9)) "q0 is min" 1.0 (H.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q1 is max" 1e9 (H.quantile h 1.0)

let test_merge () =
  let h1 = H.create ~lo:1.0 ~hi:100.0 () in
  let h2 = H.create ~lo:1.0 ~hi:100.0 () in
  H.add h1 5.0;
  H.add h2 50.0;
  let m = H.merge h1 h2 in
  Alcotest.(check int) "merged count" 2 (H.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 27.5 (H.mean m)

let test_merge_layout_mismatch () =
  let h1 = H.create ~lo:1.0 ~hi:100.0 () in
  let h2 = H.create ~lo:2.0 ~hi:100.0 () in
  Alcotest.check_raises "layouts differ"
    (Invalid_argument "Histogram.merge: layouts differ") (fun () ->
      ignore (H.merge h1 h2))

let test_bins_sum_to_count () =
  let h = H.create ~lo:1.0 ~hi:1000.0 () in
  let rng = Engine.Rng.create 5 in
  for _ = 1 to 1000 do
    H.add h (1.0 +. Engine.Rng.float rng 998.0)
  done;
  let binned = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (H.bins h) in
  Alcotest.(check int) "all inside" 1000 binned

let test_empty_quantile_raises () =
  let h = H.create ~lo:1.0 ~hi:10.0 () in
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.quantile: empty")
    (fun () -> ignore (H.quantile h 0.5))

let test_top_bin_clamped () =
  (* The top inner bin's nominal edge overshoots [hi] whenever
     log10(hi/lo) is not a whole number of bin widths; bounds must clamp
     it so in-range samples never report a bin edge beyond [hi]. *)
  let h = H.create ~buckets_per_decade:3 ~lo:1.0 ~hi:50.0 () in
  H.add h 49.0;
  List.iter
    (fun (lo, hi, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %g <= 50" hi)
        true (hi <= 50.0 +. 1e-9);
      Alcotest.(check bool) "lower below upper" true (lo < hi))
    (H.bins h);
  Alcotest.(check bool) "quantile within range" true (H.quantile h 0.5 <= 50.0)

let prop_quantile_within_range =
  QCheck.Test.make ~name:"quantile within [lo, hi] for in-range samples"
    ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 80) (float_range 2.0 9000.0))
        (int_range 1 25) (float_bound_inclusive 1.0))
    (fun (xs, bpd, q) ->
      let h = H.create ~buckets_per_decade:bpd ~lo:1.0 ~hi:10_000.0 () in
      List.iter (H.add h) xs;
      let v = H.quantile h q in
      v >= 1.0 -. 1e-9 && v <= 10_000.0 +. 1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantile monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (float_range 1.0 10000.0))
    (fun xs ->
      let h = H.create ~lo:1.0 ~hi:10000.0 () in
      List.iter (H.add h) xs;
      let q25 = H.quantile h 0.25 and q75 = H.quantile h 0.75 in
      q25 <= q75 +. 1e-9)

let () =
  Alcotest.run "histogram"
    [
      ( "unit",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "count and mean" `Quick test_count_and_mean;
          Alcotest.test_case "quantile accuracy" `Quick test_quantile_accuracy;
          Alcotest.test_case "overflow/underflow" `Quick test_overflow_underflow;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge mismatch" `Quick test_merge_layout_mismatch;
          Alcotest.test_case "bins sum" `Quick test_bins_sum_to_count;
          Alcotest.test_case "empty quantile" `Quick test_empty_quantile_raises;
          Alcotest.test_case "top bin clamped" `Quick test_top_bin_clamped;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_monotone; prop_quantile_within_range ] );
    ]
