module CL = Policy.Clock_lru
module PI = Policy.Policy_intf

let make ?(frames = 16) ?(pages = 64) () =
  let world = Testsupport.Harness.make_world ~frames ~pages () in
  let policy = CL.create world.Testsupport.Harness.env in
  let packed = PI.Packed ((module CL), policy) in
  (world, policy, packed)

let test_new_pages_active () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed 0);
  ignore (Testsupport.Harness.map_page world packed 1);
  Alcotest.(check int) "active" 2 (CL.active_size policy);
  Alcotest.(check int) "inactive" 0 (CL.inactive_size policy);
  CL.check_invariants policy

let test_speculative_pages_inactive () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed ~speculative:true 0);
  Alcotest.(check int) "inactive" 1 (CL.inactive_size policy)

let test_direct_reclaim_frees () =
  let world, _policy, packed = make ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Memory is full; the next map must reclaim. *)
  ignore (Testsupport.Harness.map_page world packed 20);
  Alcotest.(check int) "one page was evicted" 1
    (List.length world.Testsupport.Harness.reclaimed);
  Alcotest.(check int) "residency stays at capacity" 8
    (Testsupport.Harness.resident world)

let test_second_chance () =
  let world, policy, packed = make ~frames:4 ~pages:32 () in
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Map-in set accessed bits for all; clear them except page 0's, which
     we re-touch so its bit is freshly set. *)
  for vpn = 1 to 3 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  let stats = CL.direct_reclaim policy ~want:2 in
  Alcotest.(check bool) "freed something" true (stats.PI.freed >= 2);
  (* Page 0 survived thanks to its accessed bit. *)
  Alcotest.(check bool) "page 0 resident" true
    (Mem.Pte.present (Mem.Page_table.get world.Testsupport.Harness.pt 0));
  CL.check_invariants policy

let test_reclaim_under_all_accessed () =
  (* Priority escalation must free pages even when everything looks hot. *)
  let world, policy, packed = make ~frames:4 ~pages:16 () in
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  List.iter (fun vpn -> Testsupport.Harness.touch world packed vpn) [ 0; 1; 2; 3 ];
  let stats = CL.direct_reclaim policy ~want:1 in
  Alcotest.(check bool) "freed despite accessed bits" true (stats.PI.freed >= 1)

let test_rmap_cost_charged () =
  let world, policy, packed = make ~frames:4 ~pages:16 () in
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  let stats = CL.direct_reclaim policy ~want:1 in
  Alcotest.(check bool) "rmap walks counted" true (stats.PI.rmap_walks > 0);
  Alcotest.(check bool) "cpu charged covers rmap" true
    (stats.PI.cpu_ns
    >= stats.PI.rmap_walks * Mem.Costs.default.Mem.Costs.rmap_walk_ns)

let test_kswapd_balances_and_sleeps () =
  let world, policy, packed = make ~frames:32 ~pages:64 () in
  for vpn = 0 to 31 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  Testsupport.Harness.run_kthreads world packed;
  (* Free memory should be at or above the high watermark afterwards. *)
  Alcotest.(check bool) "kswapd reclaimed to high watermark" true
    (Mem.Phys_mem.free_count world.Testsupport.Harness.mem
    >= Mem.Phys_mem.high_watermark world.Testsupport.Harness.mem);
  CL.check_invariants policy

let test_eviction_order_lru_ish () =
  let world, _policy, packed = make ~frames:8 ~pages:64 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Clear all accessed bits, then touch 4..7 making 0..3 the cold set. *)
  for vpn = 0 to 7 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  for vpn = 4 to 7 do
    Testsupport.Harness.touch world packed vpn
  done;
  for vpn = 8 to 11 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* The evicted pages should be drawn from the cold set. *)
  List.iter
    (fun vpn ->
      Alcotest.(check bool) (Printf.sprintf "vpn %d was cold" vpn) true (vpn < 4))
    world.Testsupport.Harness.reclaimed_vpns

let test_stats_exposed () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed 0);
  let stats = CL.stats policy in
  Alcotest.(check bool) "has active counter" true (List.mem_assoc "active" stats);
  Alcotest.(check bool) "has evictions counter" true (List.mem_assoc "evictions" stats)

let () =
  Alcotest.run "clock_lru"
    [
      ( "unit",
        [
          Alcotest.test_case "new pages active" `Quick test_new_pages_active;
          Alcotest.test_case "speculative inactive" `Quick test_speculative_pages_inactive;
          Alcotest.test_case "direct reclaim frees" `Quick test_direct_reclaim_frees;
          Alcotest.test_case "second chance" `Quick test_second_chance;
          Alcotest.test_case "escalation" `Quick test_reclaim_under_all_accessed;
          Alcotest.test_case "rmap cost charged" `Quick test_rmap_cost_charged;
          Alcotest.test_case "kswapd balances" `Quick test_kswapd_balances_and_sleeps;
          Alcotest.test_case "evicts cold set" `Quick test_eviction_order_lru_ish;
          Alcotest.test_case "stats exposed" `Quick test_stats_exposed;
        ] );
    ]
