module F = Mem.Frame_table

let test_basic () =
  let f = F.create ~frames:8 in
  Alcotest.(check int) "frames" 8 (F.frames f);
  Alcotest.(check int) "mapped" 0 (F.mapped_count f);
  Alcotest.(check int) "owner" (-1) (F.owner_vpn f 3);
  F.set_owner f ~pfn:3 ~vpn:42;
  Alcotest.(check int) "owner set" 42 (F.owner_vpn f 3);
  Alcotest.(check bool) "is_mapped" true (F.is_mapped f 3);
  Alcotest.(check int) "mapped count" 1 (F.mapped_count f)

let test_remap_does_not_double_count () =
  let f = F.create ~frames:4 in
  F.set_owner f ~pfn:0 ~vpn:1;
  F.set_owner f ~pfn:0 ~vpn:2;
  Alcotest.(check int) "still one" 1 (F.mapped_count f);
  Alcotest.(check int) "latest owner" 2 (F.owner_vpn f 0)

let test_clear () =
  let f = F.create ~frames:4 in
  F.set_owner f ~pfn:2 ~vpn:9;
  F.clear_owner f ~pfn:2;
  Alcotest.(check int) "cleared" (-1) (F.owner_vpn f 2);
  Alcotest.(check int) "count back to zero" 0 (F.mapped_count f);
  (* double clear is a no-op *)
  F.clear_owner f ~pfn:2;
  Alcotest.(check int) "still zero" 0 (F.mapped_count f)

let test_bounds () =
  let f = F.create ~frames:4 in
  Alcotest.check_raises "out of range" (Invalid_argument "Frame_table: pfn out of range")
    (fun () -> ignore (F.owner_vpn f 4))

let prop_count_matches_scan =
  QCheck.Test.make ~name:"mapped_count matches a full scan" ~count:200
    QCheck.(list (pair (int_bound 15) bool))
    (fun ops ->
      let f = F.create ~frames:16 in
      List.iter
        (fun (pfn, set) ->
          if set then F.set_owner f ~pfn ~vpn:pfn
          else F.clear_owner f ~pfn)
        ops;
      let scan = ref 0 in
      for pfn = 0 to 15 do
        if F.is_mapped f pfn then incr scan
      done;
      !scan = F.mapped_count f)

let () =
  Alcotest.run "frame_table"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "remap" `Quick test_remap_does_not_double_count;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_count_matches_scan ]);
    ]
