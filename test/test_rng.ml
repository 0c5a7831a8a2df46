module R = Engine.Rng

let test_determinism () =
  let a = R.create 123 and b = R.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (R.bits64 a) (R.bits64 b)
  done

let test_seeds_differ () =
  let a = R.create 1 and b = R.create 2 in
  Alcotest.(check bool) "different streams" true (R.bits64 a <> R.bits64 b)

let test_copy_independent () =
  let a = R.create 9 in
  let b = R.copy a in
  Alcotest.(check int64) "copy aligned" (R.bits64 a) (R.bits64 b);
  ignore (R.bits64 a);
  (* b not advanced by a's draw *)
  let a2 = R.bits64 a and b2 = R.bits64 b in
  Alcotest.(check bool) "diverged" true (a2 <> b2)

let test_int_range () =
  let rng = R.create 5 in
  for _ = 1 to 10_000 do
    let v = R.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (R.int rng 0))

let test_int_in () =
  let rng = R.create 5 in
  for _ = 1 to 1000 do
    let v = R.int_in rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "inclusive range" true (v >= -5 && v <= 5)
  done

let test_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each within 20% of
     expectation. *)
  let rng = R.create 77 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = R.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d" i c)
        true
        (c > n / 10 * 8 / 10 && c < n / 10 * 12 / 10))
    counts

let test_float_range () =
  let rng = R.create 11 in
  for _ = 1 to 10_000 do
    let v = R.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bool_probability () =
  let rng = R.create 13 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if R.bool rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let rng = R.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> R.gaussian rng ~mu:3.0 ~sigma:2.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 3.0) < 0.05);
  Alcotest.(check bool) "variance" true (Float.abs (var -. 4.0) < 0.15)

let test_exponential_mean () =
  let rng = R.create 19 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = R.exponential rng ~mean:5.0 in
    Alcotest.(check bool) "nonnegative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.2)

let test_jitter_bounds () =
  let rng = R.create 23 in
  for _ = 1 to 1000 do
    let v = R.jitter rng 0.1 in
    Alcotest.(check bool) "in [0.9, 1.1)" true (v >= 0.9 && v < 1.1)
  done

let test_shuffle_permutes () =
  let rng = R.create 29 in
  let a = Array.init 100 (fun i -> i) in
  R.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 (fun i -> i))

let test_split_independent () =
  let parent = R.create 31 in
  let c1 = R.split parent in
  let c2 = R.split parent in
  Alcotest.(check bool) "children differ" true (R.bits64 c1 <> R.bits64 c2)

(* The draw sequence is part of every golden: a trial seed must keep
   producing the same stream whatever the generator's representation.
   These literals were recorded from the four-field record version. *)
let pinned_bits64 =
  [
    ( 0,
      [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL; 0x02eebf8c3bbe5e1aL;
        0x7eca04ebaf4a5eeaL; 0x0543c37757f08d9aL; 0xdb7490c75ab5026eL; 0xd87343e6464bc959L ] );
    ( 1,
      [ 0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L; 0xbf08119f05cd56d6L;
        0x2f47184b86186fa4L; 0x97299fcae7202345L; 0xfca3c79508f41507L; 0x85fea5c90363f221L ] );
    ( 42,
      [ 0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L;
        0xcb231c3874846a73L; 0x968d9f004e50de7dL; 0x201718ff221a3556L; 0x9ae94e070ed8cb46L ] );
    ( max_int,
      [ 0x45fb48efb1c2c1c2L; 0xc3add3a798906624L; 0x1f94c7639c6d4438L; 0x24ca4178d9f00c1fL;
        0x0403dd39f8ea9b43L; 0xc72e8c5a7b6b1b76L; 0x4e17136fd11e4c40L; 0x1789e5f2dec9dae6L ] );
  ]

let draws n f = List.init n (fun _ -> f ())

let hex xs = List.map (Printf.sprintf "%h") xs

let test_pinned_bits64 () =
  List.iter
    (fun (seed, expected) ->
      let rng = R.create seed in
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d" seed)
        expected
        (draws 8 (fun () -> R.bits64 rng)))
    pinned_bits64

let test_pinned_split_copy () =
  let parent = R.create 7 in
  let child = R.split parent in
  Alcotest.(check (list int64))
    "split child"
    [ 0xdf2112aa11904c98L; 0xc9d3c2df3e1e78adL; 0xa3ac1e1fa1dd2e7cL; 0xdce8b50c835caec5L ]
    (draws 4 (fun () -> R.bits64 child));
  let dup = R.copy parent in
  let expected =
    [ 0x2c0fc8ddfa4e9e14L; 0xb7b311b3b0d45872L; 0x6d5d9f6a6318013cL; 0xf6b263f2f5790376L ]
  in
  Alcotest.(check (list int64)) "copy" expected (draws 4 (fun () -> R.bits64 dup));
  Alcotest.(check (list int64)) "parent after split" expected
    (draws 4 (fun () -> R.bits64 parent))

let test_pinned_derived () =
  let rng = R.create 2024 in
  Alcotest.(check (list int))
    "int 1_000_003"
    [ 47143; 755338; 265895; 580049; 933524; 816254; 471717; 123725 ]
    (draws 8 (fun () -> R.int rng 1_000_003));
  Alcotest.(check (list string))
    "float 1.0"
    [ "0x1.852834bb3b128p-4"; "0x1.878de5bbf11d6p-2"; "0x1.2e4615437c218p-1";
      "0x1.a228a13811e3bp-1"; "0x1.13a9373c1e9ebp-1"; "0x1.fd750641c037p-2";
      "0x1.6b2fda3af34dap-2"; "0x1.bc924e875289fp-1" ]
    (hex (draws 8 (fun () -> R.float rng 1.0)));
  Alcotest.(check (list string))
    "gaussian"
    [ "-0x1.19b2cae7b8672p-3"; "-0x1.0a2b49c0b3a62p-4"; "-0x1.cc16e00029d1p-1";
      "-0x1.47f9b25f243d8p-4" ]
    (hex (draws 4 (fun () -> R.gaussian rng ~mu:0.0 ~sigma:1.0)));
  Alcotest.(check (list string))
    "exponential"
    [ "0x1.9113dcc411677p-1"; "0x1.05818ce0b51c8p+0"; "0x1.7fa6c8206d732p+2";
      "0x1.5e72a688289e1p-1" ]
    (hex (draws 4 (fun () -> R.exponential rng ~mean:1.0)))

let test_pinned_zipf () =
  let z = Workload.Zipf.create ~n:28_000 ~exponent:0.99 in
  let rng = R.create 99 in
  Alcotest.(check (list int))
    "ranks"
    [ 4629; 4; 162; 17974; 24; 112; 0; 5; 16; 3; 492; 182; 6755; 1081; 1280; 22 ]
    (draws 16 (fun () -> Workload.Zipf.sample z rng))

(* [reseed] must leave exactly the state [create] builds, whatever the
   generator held before: equal bytes, then equal streams. *)
let test_reseed_matches_create () =
  let t = R.create 5 in
  List.iter
    (fun seed ->
      ignore (R.bits64 t);
      R.reseed t seed;
      let fresh = R.create seed in
      Alcotest.(check bool) (Printf.sprintf "state of seed %d" seed) true (t = fresh);
      Alcotest.(check (list int64))
        (Printf.sprintf "stream of seed %d" seed)
        (draws 64 (fun () -> R.bits64 fresh))
        (draws 64 (fun () -> R.bits64 t)))
    [ 0; 1; -1; 42; 0x5DEECE66D; max_int; min_int ]

let prop_int_nonnegative =
  QCheck.Test.make ~name:"int is in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = R.create seed in
      let v = R.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool probability" `Quick test_bool_probability;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "reseed matches create" `Quick test_reseed_matches_create;
        ] );
      ( "pinned stream",
        [
          Alcotest.test_case "bits64" `Quick test_pinned_bits64;
          Alcotest.test_case "split and copy" `Quick test_pinned_split_copy;
          Alcotest.test_case "int float gaussian exponential" `Quick test_pinned_derived;
          Alcotest.test_case "zipf ranks" `Quick test_pinned_zipf;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_int_nonnegative ]);
    ]
