module Z = Workload.Zipf

let test_create_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Z.create ~n:0 ~exponent:1.0));
  List.iter
    (fun exponent ->
      Alcotest.check_raises (Printf.sprintf "exponent %g" exponent)
        (Invalid_argument "Zipf.create: exponent must be positive and finite") (fun () ->
          ignore (Z.create ~n:10 ~exponent)))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

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

(* Every (n, exponent) a workload builds, hashed over 2^20 draws: the
   YCSB populations at 0.99 (--fast and default), the fleet tenants' 0.8
   and 1.1 over both populations, PageRank's neighbour endpoints at 1.2
   (--fast, default, and both at --scale 64), and TPC-H's hash (0.7)
   and dimension (0.8) zipfs at scales 1 and 64; then a few edge shapes.
   The literals were recorded from the plain rejection-inversion
   sampler, so a faster [sample] must draw the very same ranks. *)
let pinned_configs =
  [
    (28_000, 0.99, "4ae12b5046b43c991ad9fd0300db6b67");
    (110_000, 0.99, "b22259c306015a69db41a290dc3ca2ce");
    (28_000, 0.8, "d088e8201885e9712fa7087f54e1c2be");
    (28_000, 1.1, "15c95c15a23a83d814cdfd7dc95a9749");
    (110_000, 0.8, "acecaa95fe784fb28d059774513e3316");
    (110_000, 1.1, "8fd93eb8ec5bad77dc840c56460ba2e7");
    (393_216, 1.2, "0b02b66849df9ec54a21362c745da3f0");
    (1_572_864, 1.2, "08d427d243b55a942b3817414280751a");
    (25_165_824, 1.2, "31a4b860cd5d54ab710b9005915b2f81");
    (100_663_296, 1.2, "a1d9089623097e5f6e50744372e8ad56");
    (500, 0.7, "e1a67100a62bc3e4848045dd220373c7");
    (2_000, 0.7, "6c56a0fd38b5db92b4bae30013bc053b");
    (32_000, 0.7, "29a1b29c8570437ff696cf55abd60d7a");
    (128_000, 0.7, "d10ce4ebf9afe5422b5c655130b31dcc");
    (1_200, 0.8, "171e8ddb8fa85c74159afccc8b5071ab");
    (76_800, 0.8, "476b8ce8208825145a1e04379e0b73a2");
    (1, 0.99, "b5cfa9d6c8febd618f91ac2843d50a1c");
    (3, 1.0, "f5737fa9c7707df01ce28bac13cad06a");
    (1_000, 1.0, "74f97be084a9de7b57dc3aed8a6b7f48");
    (50_000, 0.2, "79301d4bbcb085a1f60f6afd50a7c929");
    (50_000, 2.5, "9554c8ee9ea61a1242669f57b0946ce6");
  ]

let draws_digest ~n ~exponent =
  let z = Z.create ~n ~exponent in
  let rng = Engine.Rng.create 2024 in
  let draws = 1 lsl 20 in
  let b = Bytes.create (4 * draws) in
  for i = 0 to draws - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int (Z.sample z rng))
  done;
  Digest.to_hex (Digest.bytes b)

let test_pinned_draws () =
  List.iter
    (fun (n, exponent, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "n %d exponent %g" n exponent)
        expected (draws_digest ~n ~exponent))
    pinned_configs

(* Hörmann's rejection-inversion step by step, as a reference: one
   [Rng.float] per candidate, the squeeze [k - x <= s], then the exact
   acceptance test. *)
module Reference = struct
  let h_integral ~e x =
    let log_x = log x in
    if Float.abs (e -. 1.0) < 1e-12 then log_x
    else Float.expm1 ((1.0 -. e) *. log_x) /. (1.0 -. e)

  let h ~e x = exp (-.e *. log x)

  let h_integral_inverse ~e x =
    if Float.abs (e -. 1.0) < 1e-12 then exp x
    else begin
      let t = Float.max (x *. (1.0 -. e)) (-1.0 +. 1e-15) in
      exp (Float.log1p t /. (1.0 -. e))
    end

  let sampler ~n ~exponent:e =
    let x1 = h_integral ~e 1.5 -. 1.0 in
    let hn = h_integral ~e (float_of_int n +. 0.5) in
    let s = 2.0 -. h_integral_inverse ~e (h_integral ~e 2.5 -. h ~e 2.0) in
    let nf = float_of_int n in
    let rec draw rng =
      let u = hn +. (Engine.Rng.float rng 1.0 *. (x1 -. hn)) in
      let x = h_integral_inverse ~e u in
      let k = Float.max 1.0 (Float.min nf (Float.round x)) in
      if k -. x <= s || u >= h_integral ~e (k +. 0.5) -. h ~e k then int_of_float k - 1
      else draw rng
    in
    draw
end

let prop_matches_reference =
  QCheck.Test.make ~name:"draw-for-draw equal to the reference" ~count:60
    QCheck.(triple (int_range 1 50_000_000) (float_range 0.2 2.5) small_int)
    (fun (n, exponent, seed) ->
      let z = Z.create ~n ~exponent in
      let reference = Reference.sampler ~n ~exponent in
      let a = Engine.Rng.create seed and b = Engine.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20_000 do
        if Z.sample z a <> reference b then ok := false
      done;
      !ok && Engine.Rng.bits64 a = Engine.Rng.bits64 b)

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
          Alcotest.test_case "pinned draws" `Quick test_pinned_draws;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sample_in_range; prop_matches_reference ]
      );
    ]
