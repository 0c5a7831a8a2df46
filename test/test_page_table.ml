module PT = Mem.Page_table

let test_geometry () =
  let pt = PT.create ~region_size:64 ~pages:1000 () in
  Alcotest.(check int) "pages" 1000 (PT.pages pt);
  Alcotest.(check int) "region size" 64 (PT.region_size pt);
  Alcotest.(check int) "regions" 16 (PT.regions pt)

let test_get_set () =
  let pt = PT.create ~pages:10 () in
  Alcotest.(check bool) "initially empty" true (PT.get pt 5 = Mem.Pte.empty);
  PT.set pt 5 (Mem.Pte.mapped ~pfn:2 ~file_backed:false);
  Alcotest.(check int) "set/get" 2 (Mem.Pte.pfn (PT.get pt 5));
  Alcotest.check_raises "out of range" (Invalid_argument "Page_table: vpn out of range")
    (fun () -> ignore (PT.get pt 10))

let test_region_of_and_bounds () =
  let pt = PT.create ~region_size:16 ~pages:40 () in
  Alcotest.(check int) "region of 0" 0 (PT.region_of pt 0);
  Alcotest.(check int) "region of 16" 1 (PT.region_of pt 16);
  Alcotest.(check (pair int int)) "bounds 0" (0, 15) (PT.region_bounds pt 0);
  (* Last region is short. *)
  Alcotest.(check (pair int int)) "bounds last" (32, 39) (PT.region_bounds pt 2);
  Alcotest.check_raises "bad region" (Invalid_argument "Page_table.region_bounds")
    (fun () -> ignore (PT.region_bounds pt 3))

let test_resident () =
  let pt = PT.create ~pages:20 () in
  Alcotest.(check int) "empty" 0 (PT.resident pt);
  PT.set pt 1 (Mem.Pte.mapped ~pfn:0 ~file_backed:false);
  PT.set pt 2 (Mem.Pte.mapped ~pfn:1 ~file_backed:false);
  PT.set pt 3 (Mem.Pte.to_swapped Mem.Pte.empty ~slot:7);
  Alcotest.(check int) "two resident" 2 (PT.resident pt)

let test_iter_region () =
  let pt = PT.create ~region_size:8 ~pages:20 () in
  PT.set pt 9 (Mem.Pte.mapped ~pfn:1 ~file_backed:false);
  let seen = ref [] in
  PT.iter_region pt 1 (fun vpn pte -> if Mem.Pte.present pte then seen := vpn :: !seen);
  Alcotest.(check (list int)) "found the mapped page" [ 9 ] !seen;
  let count = ref 0 in
  PT.iter_region pt 2 (fun _ _ -> incr count);
  Alcotest.(check int) "short last region" 4 !count

let prop_region_partition =
  QCheck.Test.make ~name:"regions partition the vpn space" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 1 500))
    (fun (region_size, pages) ->
      let pt = PT.create ~region_size ~pages () in
      let covered = Array.make pages 0 in
      for r = 0 to PT.regions pt - 1 do
        PT.iter_region pt r (fun vpn _ -> covered.(vpn) <- covered.(vpn) + 1)
      done;
      Array.for_all (fun c -> c = 1) covered)

let () =
  Alcotest.run "page_table"
    [
      ( "unit",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "regions" `Quick test_region_of_and_bounds;
          Alcotest.test_case "resident" `Quick test_resident;
          Alcotest.test_case "iter_region" `Quick test_iter_region;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_region_partition ]);
    ]
