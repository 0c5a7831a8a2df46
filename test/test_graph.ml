module G = Workload.Graph

let small_config =
  { G.n = 2_000; avg_degree = 4; deg_exponent = 0.9; target_exponent = 1.2 }

(* Scratch generator for [iter_in_neighbors]; reseeded on every call. *)
let rng = Engine.Rng.create 0

let test_basic_counts () =
  let g = G.generate ~config:small_config ~seed:1 () in
  Alcotest.(check int) "n" 2000 (G.n g);
  Alcotest.(check bool) "m near n * avg_degree" true
    (G.m g >= 2000 * 2 && G.m g <= 2000 * 8);
  Alcotest.(check int) "offsets end at m" (G.m g) (G.offset g 2000);
  Alcotest.(check int) "offsets start at 0" 0 (G.offset g 0)

let test_degrees_positive_and_consistent () =
  let g = G.generate ~config:small_config ~seed:2 () in
  let sum = ref 0 in
  for v = 0 to G.n g - 1 do
    let d = G.degree g v in
    Alcotest.(check bool) "degree >= 1" true (d >= 1);
    Alcotest.(check int) "offset diff = degree" d (G.offset g (v + 1) - G.offset g v);
    sum := !sum + d
  done;
  Alcotest.(check int) "degrees sum to m" (G.m g) !sum

let test_power_law_skew () =
  let g = G.generate ~config:small_config ~seed:3 () in
  let avg = G.m g / G.n g in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d >> avg %d" (G.max_degree g) avg)
    true
    (G.max_degree g > 10 * avg)

let test_neighbors_deterministic () =
  let g = G.generate ~config:small_config ~seed:4 () in
  let collect ~rng v =
    let acc = ref [] in
    G.iter_in_neighbors g ~rng v (fun u -> acc := u :: !acc);
    !acc
  in
  let used = Engine.Rng.create 99 in
  ignore (Engine.Rng.bits64 used);
  Alcotest.(check (list int)) "same every call" (collect ~rng 17) (collect ~rng 17);
  Alcotest.(check (list int)) "scratch state is discarded" (collect ~rng 17)
    (collect ~rng:used 17);
  Alcotest.(check int) "count = degree" (G.degree g 17) (List.length (collect ~rng 17))

let test_neighbors_in_range () =
  let g = G.generate ~config:small_config ~seed:5 () in
  for v = 0 to 99 do
    G.iter_in_neighbors g ~rng v (fun u ->
        if u < 0 || u >= G.n g then Alcotest.fail "neighbour out of range")
  done

let test_hubs_at_low_ids () =
  (* Target sampling is zipfian over raw ids: low ids should be read far
     more often (the hot rank-page head). *)
  let g = G.generate ~config:small_config ~seed:6 () in
  let low = ref 0 and high = ref 0 in
  for v = 0 to 499 do
    G.iter_in_neighbors g ~rng v (fun u ->
        if u < G.n g / 10 then incr low
        else if u >= G.n g / 2 then incr high)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "low-id reads %d > high-id reads %d" !low !high)
    true (!low > !high)

let test_seeds_give_different_graphs () =
  let g1 = G.generate ~config:small_config ~seed:7 () in
  let g2 = G.generate ~config:small_config ~seed:8 () in
  let differs = ref false in
  for v = 0 to G.n g1 - 1 do
    if G.degree g1 v <> G.degree g2 v then differs := true
  done;
  Alcotest.(check bool) "degree placement differs" true !differs

(* The --fast PageRank graph: every offset, then the in-neighbours of the
   first block of 4096 vertices and of the top hub, hashed.  The
   literals were recorded before the degree pass learned to stop early
   and before neighbour streams reused one generator. *)
let fast_config =
  { G.n = 393_216; avg_degree = 3; deg_exponent = 0.9; target_exponent = 1.2 }

let offsets_digest g =
  let b = Buffer.create (8 * (G.n g + 1)) in
  for v = 0 to G.n g do
    Buffer.add_int64_le b (Int64.of_int (G.offset g v))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let neighbors_digest g =
  let b = Buffer.create 65536 in
  let hub = ref 0 in
  for v = 0 to G.n g - 1 do
    if G.degree g v > G.degree g !hub then hub := v
  done;
  List.iter
    (fun v -> G.iter_in_neighbors g ~rng v (fun u -> Buffer.add_int32_le b (Int32.of_int u)))
    (!hub :: List.init 4096 Fun.id);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_fast_graph () =
  List.iter
    (fun (seed, offsets, neighbors) ->
      let g = G.generate ~config:fast_config ~seed () in
      Alcotest.(check string) (Printf.sprintf "offsets of seed %d" seed) offsets
        (offsets_digest g);
      Alcotest.(check string) (Printf.sprintf "neighbours of seed %d" seed) neighbors
        (neighbors_digest g))
    [
      (11, "3b92d125b1acb41331d8dc03d0ddabba", "193e62b83c8f92247d1e6fbf2d3a4a06");
      (12, "e6ee3a5070302e8ede9dbc01d2c91f49", "8e8c17c88bdd2b023491ac96251d69bf");
    ]

let test_rejects_bad_deg_exponent () =
  List.iter
    (fun deg_exponent ->
      Alcotest.check_raises (Printf.sprintf "deg_exponent %g" deg_exponent)
        (Invalid_argument "Graph.generate: deg_exponent must be positive and finite")
        (fun () -> ignore (G.generate ~config:{ small_config with G.deg_exponent } ~seed:1 ())))
    [ 0.0; -0.9; Float.nan; Float.infinity; Float.neg_infinity ]

let prop_offsets_monotone =
  QCheck.Test.make ~name:"offsets monotone" ~count:20
    QCheck.(pair (int_range 10 500) small_int)
    (fun (n, seed) ->
      let g = G.generate ~config:{ small_config with G.n } ~seed () in
      let ok = ref true in
      for v = 0 to n - 1 do
        if G.offset g (v + 1) < G.offset g v then ok := false
      done;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "basic counts" `Quick test_basic_counts;
          Alcotest.test_case "degrees consistent" `Quick test_degrees_positive_and_consistent;
          Alcotest.test_case "power law skew" `Quick test_power_law_skew;
          Alcotest.test_case "neighbours deterministic" `Quick test_neighbors_deterministic;
          Alcotest.test_case "neighbours in range" `Quick test_neighbors_in_range;
          Alcotest.test_case "hubs at low ids" `Quick test_hubs_at_low_ids;
          Alcotest.test_case "seeds differ" `Quick test_seeds_give_different_graphs;
          Alcotest.test_case "pinned --fast graph" `Quick test_pinned_fast_graph;
          Alcotest.test_case "rejects bad deg_exponent" `Quick test_rejects_bad_deg_exponent;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_offsets_monotone ]);
    ]
