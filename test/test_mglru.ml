module M = Policy.Mglru
module PI = Policy.Policy_intf

let make ?(config = M.default_config) ?(frames = 16) ?(pages = 64) () =
  let world = Testsupport.Harness.make_world ~frames ~pages () in
  let policy = M.create_with ~config world.Testsupport.Harness.env in
  let packed = PI.Packed ((module M), policy) in
  (world, policy, packed)

let test_initial_window () =
  let _, policy, _ = make () in
  Alcotest.(check int) "window starts at min_gens" M.default_config.M.min_gens
    (M.nr_gens policy);
  M.check_invariants policy

let test_new_pages_young () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed 0);
  Alcotest.(check int) "youngest gen holds it" 1 (M.gen_size policy (M.max_seq policy));
  M.check_invariants policy

let test_speculative_pages_old () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed ~speculative:true 0);
  (* With the initial 2-generation window, "one above the eviction
     generation" coincides with the youngest; the invariant is that the
     page never lands below min_seq + 1. *)
  let old_seq = min (M.min_seq policy + 1) (M.max_seq policy) in
  Alcotest.(check int) "placed at min_seq+1" 1 (M.gen_size policy old_seq);
  Alcotest.(check int) "eviction gen empty" 0 (M.gen_size policy (M.min_seq policy));
  M.check_invariants policy

let test_direct_reclaim_frees () =
  let world, policy, packed = make ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  ignore (Testsupport.Harness.map_page world packed 20);
  Alcotest.(check int) "one eviction" 1 (List.length world.Testsupport.Harness.reclaimed);
  M.check_invariants policy

let test_eviction_prefers_cold () =
  let world, policy, packed = make ~frames:8 ~pages:64 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Cold set 0..3: clear accessed bits; hot set keeps them. *)
  for vpn = 0 to 3 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  let stats = M.direct_reclaim policy ~want:2 in
  Alcotest.(check bool) "freed" true (stats.PI.freed >= 1);
  List.iter
    (fun vpn ->
      Alcotest.(check bool) (Printf.sprintf "vpn %d cold" vpn) true (vpn < 4))
    world.Testsupport.Harness.reclaimed_vpns;
  M.check_invariants policy

let test_accessed_candidate_promoted () =
  let world, policy, packed = make ~frames:4 ~pages:16 () in
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* All accessed: reclaim must still free (escalation) but should
     promote at least one page first. *)
  let stats = M.direct_reclaim policy ~want:1 in
  Alcotest.(check bool) "freed" true (stats.PI.freed >= 1);
  Alcotest.(check bool) "promotions or forced evictions happened" true
    (stats.PI.promoted > 0 || List.mem_assoc "forced_evictions" (M.stats policy));
  M.check_invariants policy

let test_aging_pass_rotates_generations () =
  let world, policy, packed = make ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  let seq_before = M.max_seq policy in
  (* Force the window to the bottom by reclaiming repeatedly, then run
     the kernel threads so a requested aging pass completes. *)
  ignore (M.direct_reclaim policy ~want:4);
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check bool) "max_seq advanced" true (M.max_seq policy >= seq_before);
  M.check_invariants policy

let test_aging_clears_accessed_bits () =
  let config = { M.default_config with M.scan_mode = M.Scan_all } in
  let world, policy, packed = make ~config ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Drain the window so an aging pass is requested, then run it. *)
  ignore (M.direct_reclaim policy ~want:6);
  Testsupport.Harness.run_kthreads world packed;
  let still_accessed = ref 0 in
  for vpn = 0 to 7 do
    let pte = Mem.Page_table.get world.Testsupport.Harness.pt vpn in
    if Mem.Pte.present pte && Mem.Pte.accessed pte then incr still_accessed
  done;
  Alcotest.(check int) "scan-all pass cleared every accessed bit" 0 !still_accessed

let test_scan_none_never_scans () =
  let config = { M.default_config with M.scan_mode = M.Scan_none } in
  let world, policy, packed = make ~config ~frames:8 ~pages:64 () in
  for vpn = 0 to 20 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check int) "no aging PTE scans" 0
    (List.assoc "regions_scanned" (M.stats policy))

let test_gen14_can_always_grow () =
  let config = M.gen14_config in
  let world, policy, packed = make ~config ~frames:8 ~pages:64 () in
  for vpn = 0 to 30 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check int) "never stuck at the cap" 0
    (List.assoc "stuck_full_window" (M.stats policy));
  M.check_invariants policy

let test_window_bounded () =
  let world, policy, packed = make ~frames:8 ~pages:64 () in
  for round = 0 to 5 do
    for vpn = 0 to 20 do
      ignore (Testsupport.Harness.map_page world packed ((round * 7 mod 3) + vpn))
    done;
    Testsupport.Harness.run_kthreads world packed
  done;
  Alcotest.(check bool) "window within max_gens" true
    (M.nr_gens policy <= M.default_config.M.max_gens);
  M.check_invariants policy

let test_refault_distance_placement () =
  let world, policy, packed = make ~frames:4 ~pages:32 () in
  (* Fill memory; vpn 0 gets evicted. *)
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  for vpn = 0 to 3 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  ignore (Testsupport.Harness.map_page world packed 10);
  let evicted = List.hd world.Testsupport.Harness.reclaimed_vpns in
  (* Immediate refault: distance is small, so it should land young. *)
  let young_before = M.gen_size policy (M.max_seq policy) in
  ignore (Testsupport.Harness.map_page world packed evicted);
  Alcotest.(check bool) "refault placed young" true
    (M.gen_size policy (M.max_seq policy) >= young_before);
  M.check_invariants policy

let test_spatial_scan_promotes_neighbors () =
  let config = { M.default_config with M.scan_mode = M.Scan_none } in
  let world, policy, packed = make ~config ~frames:12 ~pages:64 () in
  (* Map 8 pages in one region; make them all accessed. *)
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Reclaim: the walker sees accessed candidates and the spatial scan
     should promote several neighbours per rmap walk. *)
  let stats = M.direct_reclaim policy ~want:1 in
  ignore stats;
  Alcotest.(check bool) "spatial promotions happened" true
    (List.assoc "spatial_promotions" (M.stats policy) > 0)

let test_registry_variants_construct () =
  List.iter
    (fun spec ->
      let world = Testsupport.Harness.make_world () in
      let packed = Policy.Registry.create spec world.Testsupport.Harness.env in
      Alcotest.(check bool)
        (Policy.Registry.name spec ^ " constructs")
        true
        (String.length (PI.packed_name packed) > 0))
    Policy.Registry.all_paper_specs

let test_rejects_zero_tiers () =
  let world = Testsupport.Harness.make_world () in
  Alcotest.check_raises "tiers = 0" (Invalid_argument "Mglru: tiers < 1") (fun () ->
      ignore (M.create_with ~config:{ M.default_config with M.tiers = 0 } world.env))

(* Hand-driven refault tokens.  Frames are ample, so only explicit
   [direct_reclaim] calls evict; [Scan_none] aging only rotates
   generations; every mapped page is made cold, so eviction takes the
   tail of the oldest generation.  Tracked pages are vpns 0-3; churn
   uses vpns from 100 up. *)
type hand = {
  world : Testsupport.Harness.world;
  policy : M.t;
  packed : PI.packed;
  mutable fresh : int;
}

let hand () =
  let config = { M.default_config with M.scan_mode = M.Scan_none } in
  let world, policy, packed = make ~config ~frames:64 ~pages:256 () in
  { world; policy; packed; fresh = 100 }

let map_cold h vpn =
  ignore (Testsupport.Harness.map_page h.world h.packed vpn);
  let pt = h.world.Testsupport.Harness.pt in
  Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed (Mem.Page_table.get pt vpn))

let last_evicted h = List.hd h.world.Testsupport.Harness.reclaimed_vpns

(* Map a fresh cold page and evict one page.  Each time this drains the
   oldest generation, the window at its bottom ages by one. *)
let churn h =
  map_cold h h.fresh;
  h.fresh <- h.fresh + 1;
  ignore (M.direct_reclaim h.policy ~want:1)

(* Map vpns 0-3 and evict vpn 0; returns its eviction sequence. *)
let evict_first h =
  for vpn = 0 to 3 do
    map_cold h vpn
  done;
  ignore (M.direct_reclaim h.policy ~want:1);
  Alcotest.(check int) "vpn 0 evicted" 0 (last_evicted h);
  M.max_seq h.policy

(* Churn until [max_seq = seq - 2], then let one reclaim with nothing
   to free run two aging passes.  The window is then wider than two
   generations, so a refault placed one above the oldest generation is
   not placed in the youngest. *)
let age_to h seq =
  while M.max_seq h.policy < seq - 2 do
    churn h
  done;
  ignore (M.direct_reclaim h.policy ~want:0);
  Alcotest.(check int) "max_seq" seq (M.max_seq h.policy);
  Alcotest.(check bool) "window wider than two" true (M.nr_gens h.policy > 2)

(* Whether [f] mapped one page into the youngest generation. *)
let placed_young h f =
  let before = M.gen_size h.policy (M.max_seq h.policy) in
  f ();
  M.check_invariants h.policy;
  M.gen_size h.policy (M.max_seq h.policy) = before + 1

let refault_young h vpn =
  placed_young h (fun () -> ignore (Testsupport.Harness.map_page h.world h.packed vpn))

(* An anonymous refault lands young up to a distance of [max_gens]
   generations, and one above the oldest generation past it: the
   distance is [max_seq] at the refault minus [max_seq] at the
   eviction. *)
let test_token_distance () =
  let max_gens = M.default_config.M.max_gens in
  List.iter
    (fun (distance, young) ->
      let h = hand () in
      let evict_seq = evict_first h in
      age_to h (evict_seq + distance);
      Alcotest.(check bool) (Printf.sprintf "distance %d young" distance) young
        (refault_young h 0))
    [ (max_gens, true); (max_gens + 1, false) ]

(* A refault consumes the token: announced again with no eviction in
   between (a page migrated off an offlined frame, as chaos hotplug
   does), the page is a cold fault and lands young. *)
let test_token_consumed () =
  let h = hand () in
  let evict_seq = evict_first h in
  age_to h (evict_seq + M.default_config.M.max_gens + 1);
  Alcotest.(check bool) "far refault placed old" false (refault_young h 0);
  let w = h.world in
  let pte = Mem.Page_table.get w.Testsupport.Harness.pt 0 in
  let dst = Option.get (Mem.Phys_mem.alloc w.Testsupport.Harness.mem) in
  Mem.Page_table.set w.Testsupport.Harness.pt 0 (Mem.Pte.to_mapped pte ~pfn:dst);
  Mem.Frame_table.clear_owner w.Testsupport.Harness.frames ~pfn:(Mem.Pte.pfn pte);
  Mem.Frame_table.set_owner w.Testsupport.Harness.frames ~pfn:dst ~vpn:0;
  Alcotest.(check bool) "second refault is cold" true
    (placed_young h (fun () ->
         M.on_page_mapped h.policy ~pfn:dst ~vpn:0 ~refault:true
           ~file_backed:false ~speculative:false));
  Alcotest.(check int) "both counted as refaults" 2
    (List.assoc "refaults" (M.stats h.policy))

(* A re-eviction overwrites the token.  The page's swap copy is dropped
   in between (as an OOM kill's teardown does), so it comes back as a
   fresh fault that leaves the first token in place. *)
let test_token_overwritten () =
  let h = hand () in
  let first = evict_first h in
  while M.max_seq h.policy < first + 3 do
    churn h
  done;
  Mem.Page_table.set h.world.Testsupport.Harness.pt 0 Mem.Pte.empty;
  map_cold h 0;
  let guard = ref 100 in
  while last_evicted h <> 0 && !guard > 0 do
    churn h;
    decr guard
  done;
  Alcotest.(check int) "vpn 0 evicted again" 0 (last_evicted h);
  let second = M.max_seq h.policy in
  age_to h (second + 2);
  Alcotest.(check bool) "first token would place it old" true
    (M.max_seq h.policy - first > M.default_config.M.max_gens);
  Alcotest.(check bool) "refault uses the second token" true (refault_young h 0)

(* No paper workload maps file-backed pages, so no golden reaches the
   tier half of the refault token.  Eight sequential passes over 4096
   pages, every even page file-backed, at a third of the footprint:
   file pages refault up the tiers and the PID shield engages.  The
   literals were recorded before the refault store changed shape. *)
let test_file_backed_tiers_pinned () =
  let pages = 4096 in
  let pass =
    Workload.Chunk.Chunk
      (Workload.Chunk.chunk (Workload.Chunk.Pages (Array.init pages Fun.id)))
  in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps = [| Array.make 8 pass |];
        footprint = pages;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun p -> p mod 2 = 0);
      }
  in
  let r =
    Repro_core.Machine.run
      (Repro_core.Machine.default_config ~capacity_frames:(pages / 3) ~seed:42)
      ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  let stats = r.Repro_core.Machine.policy_stats in
  Alcotest.(check bool) "tier shield saved pages" true
    (List.assoc "tier_protected_saves" stats > 0);
  Alcotest.(check bool) "tiers protected" true (List.assoc "protected_tiers" stats > 0);
  Alcotest.(check int) "runtime" 133016573975 r.Repro_core.Machine.runtime_ns;
  Alcotest.(check int) "major faults" 16269 r.Repro_core.Machine.major_faults;
  Alcotest.(check int) "minor faults" 4096 r.Repro_core.Machine.minor_faults;
  Alcotest.(check (list (pair string int)))
    "policy stats"
    [
      ("max_seq", 259);
      ("min_seq", 256);
      ("nr_gens", 4);
      ("aging_passes", 421);
      ("regions_scanned", 664);
      ("regions_skipped", 26280);
      ("ptes_scanned", 76608);
      ("aging_promotions", 2361);
      ("evict_promotions", 533);
      ("spatial_promotions", 29842);
      ("evictions", 28913);
      ("refaults", 26157);
      ("forced_evictions", 1264);
      ("tier_protected_saves", 261176);
      ("stuck_full_window", 163);
      ("protected_tiers", 3);
    ]
    stats

let () =
  Alcotest.run "mglru"
    [
      ( "unit",
        [
          Alcotest.test_case "initial window" `Quick test_initial_window;
          Alcotest.test_case "new pages young" `Quick test_new_pages_young;
          Alcotest.test_case "speculative old" `Quick test_speculative_pages_old;
          Alcotest.test_case "direct reclaim" `Quick test_direct_reclaim_frees;
          Alcotest.test_case "evicts cold" `Quick test_eviction_prefers_cold;
          Alcotest.test_case "promotes accessed" `Quick test_accessed_candidate_promoted;
          Alcotest.test_case "aging rotates" `Quick test_aging_pass_rotates_generations;
          Alcotest.test_case "aging clears bits" `Quick test_aging_clears_accessed_bits;
          Alcotest.test_case "scan-none never scans" `Quick test_scan_none_never_scans;
          Alcotest.test_case "gen14 never capped" `Quick test_gen14_can_always_grow;
          Alcotest.test_case "window bounded" `Quick test_window_bounded;
          Alcotest.test_case "refault distance" `Quick test_refault_distance_placement;
          Alcotest.test_case "spatial scan" `Quick test_spatial_scan_promotes_neighbors;
          Alcotest.test_case "registry variants" `Quick test_registry_variants_construct;
          Alcotest.test_case "file-backed tiers pinned" `Quick test_file_backed_tiers_pinned;
          Alcotest.test_case "rejects zero tiers" `Quick test_rejects_zero_tiers;
          Alcotest.test_case "token distance" `Quick test_token_distance;
          Alcotest.test_case "token consumed" `Quick test_token_consumed;
          Alcotest.test_case "token overwritten" `Quick test_token_overwritten;
        ] );
    ]
