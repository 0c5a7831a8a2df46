(* Latency runs against the array reference: every reader of the
   stored form must give what the sealed array it came from gives, bit
   for bit. *)

module L = Structures.Latencies
module P = Stats.Percentile

let sorted a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  a

let landmarks = [ 0.5; 0.9; 0.99; 0.999; 0.9999; 1.0 ]

(* Ascending arrays with empty ones, zeros, long runs of one value and
   values up to [max_int] (2^62 - 1). *)
let gen_sorted =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (2, pure 0);
        (3, int_bound 3);
        (3, int_bound 1_000_000_000);
        (1, map (fun d -> max_int - d) (int_bound 5));
        (1, map (fun v -> v land max_int) int);
      ]
  in
  let body =
    frequency
      [
        (1, pure [||]);
        (6, array_size (int_bound 300) value);
        (1, map2 (fun v n -> Array.make n v) value (int_range 1 2000));
      ]
  in
  map sorted body

let print a = QCheck.Print.(array int) a

let arb_sorted = QCheck.make ~print gen_sorted

let bits = Int64.bits_of_float

(* The runs of [a] computed the plain way, for [of_runs]. *)
let runs_of_array a =
  Array.fold_right
    (fun v acc ->
      match acc with
      | (w, c) :: rest when w = v -> (v, c + 1) :: rest
      | _ -> (v, 1) :: acc)
    a []

let prop_round_trip =
  QCheck.Test.make ~name:"to_array round-trips, count and sum match" ~count:500
    arb_sorted (fun a ->
      let r = L.of_sorted a in
      L.to_array r = a
      && L.count r = Array.length a
      && L.sum r = Array.fold_left ( + ) 0 a
      && L.fold (fun acc v c -> acc @ [ (v, c) ]) [] r = runs_of_array a)

let prop_quantiles =
  QCheck.Test.make ~name:"quantiles bit-identical to quantile_ns" ~count:500
    QCheck.(pair arb_sorted (list_of_size Gen.(0 -- 8) (float_bound_inclusive 1.0)))
    (fun (a, qs) ->
      Array.length a = 0
      || begin
           let r = L.of_sorted a in
           List.for_all
             (fun q -> bits (P.quantile_runs r q) = bits (P.quantile_ns a q))
             (landmarks @ qs)
           && P.tail_of_runs r = P.tail_of a
         end)

let prop_merge =
  QCheck.Test.make ~name:"merge = runs of the sorted concatenation" ~count:300
    QCheck.(make ~print:Print.(list print) Gen.(list_size (0 -- 5) gen_sorted))
    (fun parts ->
      L.merge (List.map L.of_sorted parts) = L.of_sorted (sorted (Array.concat parts)))

let prop_canonical =
  QCheck.Test.make ~name:"one multiset, one value under =" ~count:300
    QCheck.(pair arb_sorted small_nat)
    (fun (a, cut) ->
      let n = Array.length a in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      (* Split the array unevenly, so a value's run straddles the cut. *)
      let left = Array.sub a 0 cut and right = Array.sub a cut (n - cut) in
      let r = L.of_sorted a in
      r = L.of_runs (runs_of_array a)
      && r = L.merge [ L.of_sorted right; L.of_sorted left ]
      && r = L.of_sorted (L.to_array r)
      && (n > 0 || r = L.empty))

let test_rank_reader () =
  let r = L.of_sorted [| 2; 2; 5; 9; 9; 9 |] in
  let nth = L.rank_reader r in
  Alcotest.(check (list int)) "ranks read ascending" [ 2; 2; 5; 9; 9; 9 ]
    (List.map nth [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "and again after a lower rank" [ 9; 2; 5; 2 ]
    (List.map nth [ 5; 0; 2; 1 ]);
  Alcotest.check_raises "past the last rank"
    (Invalid_argument "Latencies.rank_reader: rank out of range") (fun () ->
      ignore (nth 6));
  Alcotest.check_raises "no rank of nothing"
    (Invalid_argument "Latencies.rank_reader: rank out of range") (fun () ->
      ignore (L.rank_reader L.empty 0))

let test_refused () =
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "descending array" (fun () -> L.of_sorted [| 3; 2 |]);
  refused "negative latency" (fun () -> L.of_sorted [| -1; 4 |]);
  refused "repeated run value" (fun () -> L.of_runs [ (3, 1); (3, 2) ]);
  refused "descending runs" (fun () -> L.of_runs [ (7, 1); (3, 1) ]);
  refused "empty run" (fun () -> L.of_runs [ (3, 0) ]);
  refused "negative run value" (fun () -> L.of_runs [ (-3, 1) ]);
  refused "more than an array holds" (fun () ->
      L.of_runs [ (1, Sys.max_array_length); (2, 1) ]);
  refused "a merge past an array" (fun () ->
      L.merge [ L.of_runs [ (1, Sys.max_array_length) ]; L.of_sorted [| 1 |] ]);
  Alcotest.(check int) "the largest run is kept" Sys.max_array_length
    (L.count (L.of_runs [ (max_int, Sys.max_array_length) ]))

let () =
  Alcotest.run "latencies"
    [
      ( "runs",
        [
          Alcotest.test_case "rank reader" `Quick test_rank_reader;
          Alcotest.test_case "malformed runs refused" `Quick test_refused;
        ] );
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [ prop_round_trip; prop_quantiles; prop_merge; prop_canonical ] );
    ]
