(* Guest hook API (Policy_hooks.V1) and its host adapter: version
   negotiation, capability restriction, per-hook cost attribution, and
   jobs-independence of the regret scoreboard built on top of it. *)

module PI = Policy.Policy_intf
module V1 = Policy.Hooks.V1
module H = Testsupport.Harness

(* ------------------------------------------------------------------ *)
(* Version negotiation                                                 *)

let test_negotiate () =
  Alcotest.(check int) "current version" 1 Policy.Hooks.current_version;
  (match V1.negotiate ~guest_version:1 with
  | Ok v -> Alcotest.(check int) "v1 accepted" 1 v
  | Error e -> Alcotest.fail ("v1 rejected: " ^ e));
  (match V1.negotiate ~guest_version:2 with
  | Ok _ -> Alcotest.fail "v2 must be rejected"
  | Error _ -> ());
  match V1.negotiate ~guest_version:0 with
  | Ok _ -> Alcotest.fail "v0 must be rejected"
  | Error _ -> ()

(* A syntactically valid guest demanding a hook API the host does not
   speak: construction must fail before any machine state is touched. *)
module Future_guest = struct
  type t = unit

  let name = "future-guest"
  let api_version = 99
  let init _ = ()
  let on_fault () _ = ()
  let on_access_sample () _ = ()
  let on_scan_tick () = ()
  let evict_request () ~want:_ = []
  let stats () = []
  let gauges () = []
end

module Future_host = Policy.Guest_host.Host (Future_guest)

let test_version_mismatch_fails_at_create () =
  let world = H.make_world () in
  match Future_host.create world.H.env with
  | _ -> Alcotest.fail "host must refuse an unknown hook API version"
  | exception Failure msg ->
    Alcotest.(check bool) "message names the guest" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Capability restriction                                              *)

(* The guest never holds [reclaim_page]; every nomination passes the
   host's [evictable] gate.  Protect one frame behind the gate and
   check the guest can neither free it nor wedge reclaim on it. *)
let test_guest_cannot_free_protected_frame () =
  let frames = 8 and pages = 32 in
  let world = H.make_world ~frames ~pages () in
  let protected_vpn = 0 in
  world.H.env <-
    {
      world.H.env with
      PI.evictable =
        (fun ~pfn ~force:_ ->
          let vpn = Mem.Frame_table.owner_vpn world.H.frames pfn in
          vpn >= 0 && vpn <> protected_vpn);
    };
  let packed = Policy.Registry.create Policy.Registry.Sieve world.H.env in
  for vpn = 0 to frames - 1 do
    ignore (H.map_page world packed vpn)
  done;
  (* Every further fault needs a reclaim; the guest's oldest-first
     nominations hit the protected frame early and often. *)
  for vpn = frames to (3 * frames) - 1 do
    ignore (H.map_page world packed vpn)
  done;
  let pte = Mem.Page_table.get world.H.pt protected_vpn in
  Alcotest.(check bool) "protected page still resident" true
    (Mem.Pte.present pte);
  Alcotest.(check bool) "protected page never reclaimed" false
    (List.mem protected_vpn world.H.reclaimed_vpns);
  let (PI.Packed ((module P), p)) = packed in
  let stats = P.stats p in
  Alcotest.(check bool) "gate refusals were recorded" true
    (List.assoc "evict_rejected" stats > 0);
  P.check_invariants p

(* ------------------------------------------------------------------ *)
(* Per-hook cost attribution                                           *)

module Sieve_host = Policy.Guest_host.Host (Policy.Sieve)

let hook_stat stats name = List.assoc name stats

let test_hook_costs_sum_into_cpu_ns () =
  let frames = 16 and pages = 64 in
  let world = H.make_world ~frames ~pages () in
  let costs = world.H.env.PI.costs in
  let p = Sieve_host.create world.H.env in
  let packed = PI.Packed ((module Sieve_host), p) in
  for vpn = 0 to frames - 1 do
    ignore (H.map_page world packed vpn)
  done;
  let rs = Sieve_host.direct_reclaim p ~want:4 in
  Alcotest.(check bool) "reclaim made progress" true
    (rs.PI.freed >= 1);
  let stats = Sieve_host.stats p in
  let fault_calls = hook_stat stats "hook_fault_calls" in
  let fault_ns = hook_stat stats "hook_fault_ns" in
  let evict_calls = hook_stat stats "hook_evict_calls" in
  let evict_ns = hook_stat stats "hook_evict_ns" in
  Alcotest.(check int) "one fault dispatch per mapped page" frames fault_calls;
  Alcotest.(check bool) "at least one evict dispatch" true (evict_calls >= 1);
  (* Floor: every dispatch costs at least the trampoline. *)
  Alcotest.(check bool) "fault ns >= calls * dispatch cost" true
    (fault_ns >= fault_calls * costs.Mem.Costs.hook_dispatch_ns);
  Alcotest.(check bool) "evict ns >= calls * dispatch cost" true
    (evict_ns >= evict_calls * costs.Mem.Costs.hook_dispatch_ns);
  (* Attribution: the reclaim call flushed the deferred fault debt and
     accrued all evict dispatches, so its cpu_ns covers both. *)
  Alcotest.(check bool) "hook ns lands in reclaim cpu_ns" true
    (rs.PI.cpu_ns >= fault_ns + evict_ns);
  (* The gauge total agrees with the per-hook breakdown. *)
  let gauges = Sieve_host.gauges p in
  let total =
    fault_ns + evict_ns
    + hook_stat stats "hook_access_ns"
    + hook_stat stats "hook_tick_ns"
  in
  Alcotest.(check (float 1e-9)) "hook_ns_total gauge" (float_of_int total)
    (List.assoc "hook_ns_total" gauges)

(* Every guest behind the registry dispatches all four hooks once the
   world has seen faults, accessed-bit samples and pressure. *)
let test_all_hooks_fire () =
  List.iter
    (fun spec ->
      let name = Policy.Registry.name spec in
      let frames = 16 and pages = 64 in
      let world = H.make_world ~frames ~pages () in
      let packed = Policy.Registry.create spec world.H.env in
      for vpn = 0 to (2 * frames) - 1 do
        ignore (H.map_page world packed vpn);
        H.advance world 100_000
      done;
      H.run_kthreads world packed;
      let (PI.Packed ((module P), p)) = packed in
      let stats = P.stats p in
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s > 0" name key)
            true
            (hook_stat stats key > 0))
        [
          "hook_fault_calls"; "hook_access_calls"; "hook_tick_calls";
          "hook_evict_calls";
        ];
      Alcotest.(check bool) (name ^ ": residency bounded") true
        (H.resident world <= frames);
      P.check_invariants p)
    Policy.Registry.guest_specs

(* ------------------------------------------------------------------ *)
(* Regret scoreboard determinism                                       *)

module R = Repro_core.Runner
module Regret = Repro_core.Regret

let test_regret_jobs_identical () =
  let profile = { R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 } in
  let workloads = [ R.Tpch ]
  and policies = [ Policy.Registry.Clock; Policy.Registry.Sieve ]
  and ratios = [ 0.5 ] in
  let compute jobs =
    let ctx = R.make_ctx ~profile ~jobs () in
    Regret.compute ctx ~workloads ~policies ~ratios ~swap:R.Ssd
  in
  let serial = compute 1 and parallel = compute 4 in
  Alcotest.(check int) "cell count" (List.length serial)
    (List.length parallel);
  Alcotest.(check bool) "cells byte-identical across jobs" true
    (serial = parallel);
  List.iter
    (fun (c : Regret.cell) ->
      Alcotest.(check bool) "no failed trials" true (c.Regret.c_failed = 0);
      Alcotest.(check bool) "regret is finite" true
        (Float.is_finite c.Regret.c_regret))
    serial

(* At ratio 1.0 the whole footprint fits: Belady needs no refetch, so
   the ratio has no value.  A clean cell renders "-", never "failed". *)
let test_regret_without_belady_refetches () =
  let ctx =
    R.make_ctx ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 } ()
  in
  let cells =
    Regret.compute ctx ~workloads:[ R.Tpch ] ~policies:[ Policy.Registry.Clock ]
      ~ratios:[ 1.0 ] ~swap:R.Ssd
  in
  let c =
    match cells with [ c ] -> c | _ -> Alcotest.fail "expected one cell"
  in
  Alcotest.(check int) "no failed trials" 0 c.Regret.c_failed;
  Alcotest.(check (float 0.0)) "belady needs no refetch" 0.0 c.Regret.c_belady_faults;
  Alcotest.(check bool) "policy faults measured" true
    (Float.is_finite c.Regret.c_policy_faults);
  let module Rep = Repro_core.Report in
  match (Regret.figure ~swap:R.Ssd cells).Rep.tables with
  | [ t ] ->
    let regret =
      match List.find_index (( = ) "regret") t.Rep.header with
      | Some i -> i
      | None -> Alcotest.fail "no regret column"
    in
    Alcotest.(check bool) "regret cell is a dash" true
      (List.map (fun row -> List.nth row regret) t.Rep.rows = [ Rep.Dash ])
  | _ -> Alcotest.fail "the scoreboard is one table"

let () =
  Alcotest.run "hooks"
    [
      ( "api",
        [
          Alcotest.test_case "negotiate" `Quick test_negotiate;
          Alcotest.test_case "version mismatch fails at create" `Quick
            test_version_mismatch_fails_at_create;
        ] );
      ( "capability",
        [
          Alcotest.test_case "guest cannot free protected frame" `Quick
            test_guest_cannot_free_protected_frame;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "hook costs sum into cpu_ns" `Quick
            test_hook_costs_sum_into_cpu_ns;
          Alcotest.test_case "all hooks fire for every guest" `Quick
            test_all_hooks_fire;
        ] );
      ( "regret",
        [
          Alcotest.test_case "jobs 1 vs 4 identical" `Quick
            test_regret_jobs_identical;
          Alcotest.test_case "no belady refetches" `Quick
            test_regret_without_belady_refetches;
        ] );
    ]
