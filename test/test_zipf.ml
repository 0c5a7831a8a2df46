module Z = Workload.Zipf

let test_create_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Z.create ~n:0 ~exponent:1.0));
  Alcotest.check_raises "exponent"
    (Invalid_argument "Zipf.create: exponent must be positive") (fun () ->
      ignore (Z.create ~n:10 ~exponent:0.0))

let test_range () =
  let z = Z.create ~n:100 ~exponent:0.99 in
  let rng = Engine.Rng.create 4 in
  for _ = 1 to 50_000 do
    let s = Z.sample z rng in
    Alcotest.(check bool) "in [0, n)" true (s >= 0 && s < 100)
  done

let test_n1_degenerate () =
  let z = Z.create ~n:1 ~exponent:0.99 in
  let rng = Engine.Rng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0" 0 (Z.sample z rng)
  done

let test_pmf_sums_to_one () =
  let p = Z.pmf ~n:500 ~exponent:0.8 in
  Alcotest.(check int) "one entry per rank" 500 (Array.length p);
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p)

let test_pmf_decreasing () =
  let p = Z.pmf ~n:100 ~exponent:1.2 in
  for k = 0 to 98 do
    Alcotest.(check bool) "monotone" true (p.(k) > p.(k + 1))
  done

let test_empirical_matches_exact () =
  (* Hörmann's rejection-inversion should match the exact pmf. *)
  let n = 50 in
  let z = Z.create ~n ~exponent:0.99 in
  let p = Z.pmf ~n ~exponent:0.99 in
  let rng = Engine.Rng.create 21 in
  let draws = 200_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let s = Z.sample z rng in
    counts.(s) <- counts.(s) + 1
  done;
  for k = 0 to 9 do
    let expected = p.(k) *. float_of_int draws in
    let got = float_of_int counts.(k) in
    let rel = Float.abs (got -. expected) /. expected in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d rel err %.3f < 0.05" k rel)
      true (rel < 0.05)
  done

let test_exponent_one_special_case () =
  (* e = 1 exercises the logarithmic branch. *)
  let z = Z.create ~n:1000 ~exponent:1.0 in
  let rng = Engine.Rng.create 5 in
  let zero_hits = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    if Z.sample z rng = 0 then incr zero_hits
  done;
  let expected = (Z.pmf ~n:1000 ~exponent:1.0).(0) *. float_of_int draws in
  Alcotest.(check bool) "head frequency" true
    (Float.abs (float_of_int !zero_hits -. expected) /. expected < 0.1)

let test_skew_increases_with_exponent () =
  let rng = Engine.Rng.create 6 in
  let head_mass e =
    let z = Z.create ~n:10_000 ~exponent:e in
    let hits = ref 0 in
    for _ = 1 to 20_000 do
      if Z.sample z rng < 10 then incr hits
    done;
    !hits
  in
  let low = head_mass 0.5 and high = head_mass 1.3 in
  Alcotest.(check bool) "higher exponent concentrates" true (high > 2 * low)

let test_shared_plan_across_domains () =
  (* A PageRank plan built in one domain is read from pool workers, so
     one [t] samples in many domains at once.  It holds only constants
     fixed by [create]: every worker must draw what a lone domain draws
     from the same seed. *)
  let z = Z.create ~n:2000 ~exponent:0.9 in
  let draws seed =
    let rng = Engine.Rng.create seed in
    Array.init 1000 (fun _ -> Z.sample z rng)
  in
  let expected = Array.init 16 draws in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let got = Engine.Pool.map pool draws (Array.init 16 (fun i -> i)) in
      Array.iteri
        (fun i d ->
          Alcotest.(check (array int)) "same draws in every worker" expected.(i) d)
        got)

let prop_sample_in_range =
  QCheck.Test.make ~name:"samples always in range" ~count:100
    QCheck.(triple (int_range 1 10_000) (float_range 0.2 2.5) small_int)
    (fun (n, e, seed) ->
      let z = Z.create ~n ~exponent:e in
      let rng = Engine.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let s = Z.sample z rng in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

let () =
  Alcotest.run "zipf"
    [
      ( "unit",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "n=1" `Quick test_n1_degenerate;
          Alcotest.test_case "pmf sums to 1" `Quick test_pmf_sums_to_one;
          Alcotest.test_case "pmf decreasing" `Quick test_pmf_decreasing;
          Alcotest.test_case "empirical matches exact" `Quick test_empirical_matches_exact;
          Alcotest.test_case "exponent = 1" `Quick test_exponent_one_special_case;
          Alcotest.test_case "skew grows with exponent" `Quick test_skew_increases_with_exponent;
          Alcotest.test_case "shared plan across domains" `Quick
            test_shared_plan_across_domains;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_sample_in_range ]);
    ]
