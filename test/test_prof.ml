module P = Obs.Prof
module R = Repro_core.Runner
module M = Repro_core.Machine

(* ------------------------------------------------------------------ *)
(* Taxonomy and path codes                                             *)
(* ------------------------------------------------------------------ *)

let test_taxonomy () =
  Alcotest.(check int) "fourteen phases" 14 P.n_phases;
  Alcotest.(check int) "array agrees" P.n_phases (Array.length P.all_phases);
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "index round-trip" i (P.phase_index p);
      Alcotest.(check bool) "of_index round-trip" true (P.phase_of_index i = p))
    P.all_phases;
  Alcotest.(check (list string)) "stable names"
    [
      "app_compute"; "fault_handling"; "rmap_walk"; "pte_scan"; "aging_walk";
      "evict_scan"; "writeback_wait"; "swap_wait"; "barrier_wait"; "oom_kill";
      "hook_on_fault"; "hook_on_access_sample"; "hook_on_scan_tick";
      "hook_evict_request";
    ]
    (List.map P.phase_name (Array.to_list P.all_phases));
  Alcotest.(check (list bool)) "wait phases"
    [ false; false; false; false; false; true; true; true; false ]
    (List.map P.wait_phase
       [
         P.App_compute; P.Fault_handling; P.Rmap_walk; P.Pte_scan;
         P.Evict_scan; P.Writeback_wait; P.Swap_wait; P.Barrier_wait;
         P.Oom_kill;
       ]);
  Alcotest.(check (list bool)) "guest phases"
    [ true; true; true; true; false; false ]
    (List.map P.guest_phase
       [
         P.Hook_fault; P.Hook_access; P.Hook_tick; P.Hook_evict;
         P.App_compute; P.Evict_scan;
       ]);
  List.iter
    (fun p ->
      Alcotest.(check bool) "hook phases are CPU, not waits" false
        (P.wait_phase p))
    [ P.Hook_fault; P.Hook_access; P.Hook_tick; P.Hook_evict ];
  match P.phase_of_index P.n_phases with
  | _ -> Alcotest.fail "of_index out of range should raise"
  | exception Invalid_argument _ -> ()

let test_path_codes () =
  let stacks =
    [
      [ P.App_compute ];
      [ P.Fault_handling; P.Evict_scan ];
      [ P.App_compute; P.Fault_handling; P.Evict_scan; P.Rmap_walk ];
      [ P.Evict_scan; P.Pte_scan ];
      [ P.Oom_kill ];
    ]
  in
  List.iter
    (fun stack ->
      Alcotest.(check bool) "round-trip" true
        (P.path_phases (P.path_code stack) = stack))
    stacks;
  (* Distinct stacks encode distinctly. *)
  let codes = List.map P.path_code stacks in
  Alcotest.(check int) "injective" (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* ------------------------------------------------------------------ *)
(* Sink attribution semantics                                          *)
(* ------------------------------------------------------------------ *)

let totals_only = P.Totals

let total cap ~cls ~code =
  Array.fold_left
    (fun acc (c, p, ns) -> if c = cls && p = code then acc + ns else acc)
    0 cap.P.totals

let sum_totals cap = Array.fold_left (fun acc (_, _, ns) -> acc + ns) 0 cap.P.totals

let app_sink () =
  let t = P.create totals_only in
  P.register_thread t ~tid:0 ~name:"app0" ~klass:P.App ~default:P.App_compute;
  P.enter_thread t ~tid:0;
  t

let test_disabled_noops () =
  let t = P.disabled in
  Alcotest.(check bool) "disabled" false (P.enabled t);
  P.register_thread t ~tid:0 ~name:"app0" ~klass:P.App ~default:P.App_compute;
  P.enter_thread t ~tid:0;
  P.begin_phase t ~now:0 P.Fault_handling;
  P.charge_phase t P.Pte_scan 100;
  P.on_cpu_charge t (-1) 50;
  P.wait t ~tid:0 ~now:10 P.Swap_wait 10;
  P.end_phase t ~now:1;
  Alcotest.(check bool) "no capture" true (P.capture t = None);
  Alcotest.(check bool) "create off = disabled" true
    (P.capture (P.create P.Off) = None)

let test_untagged_lands_in_enclosing_span () =
  let t = app_sink () in
  P.on_cpu_charge t (-1) 40;
  P.begin_phase t ~now:0 P.Fault_handling;
  P.on_cpu_charge t (-1) 7;
  P.end_phase t ~now:1;
  let cap = Option.get (P.capture t) in
  Alcotest.(check int) "default phase" 40
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute ]));
  Alcotest.(check int) "enclosing span" 7
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute; P.Fault_handling ]));
  Alcotest.(check int) "nothing else" 47 (sum_totals cap)

let test_tagged_charge_consumed_by_untagged_flush () =
  (* The policy attributes 100 ns at accrual; the machine later pushes
     150 ns through an untagged Cpu.charge.  The 100 attributed ns must
     not double-count: only the 50 ns remainder lands on the path. *)
  let t = app_sink () in
  P.begin_phase t ~now:0 P.Fault_handling;
  P.charge_phase t P.Pte_scan 100;
  P.on_cpu_charge t (-1) 150;
  P.end_phase t ~now:1;
  let cap = Option.get (P.capture t) in
  Alcotest.(check int) "tagged under span" 100
    (total cap ~cls:0
       ~code:(P.path_code [ P.App_compute; P.Fault_handling; P.Pte_scan ]));
  Alcotest.(check int) "only the remainder" 50
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute; P.Fault_handling ]));
  Alcotest.(check int) "each ns once" 150 (sum_totals cap)

let test_explicitly_tagged_cpu_charge_skips_pending () =
  let t = app_sink () in
  P.charge_phase t P.Rmap_walk 30;
  (* A tagged Cpu.charge is work charged nowhere else: full amount. *)
  P.on_cpu_charge t (P.phase_index P.Fault_handling) 25;
  (* Pending is still 30, consumed by this untagged flush. *)
  P.on_cpu_charge t (-1) 30;
  let cap = Option.get (P.capture t) in
  Alcotest.(check int) "rmap attributed" 30
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute; P.Rmap_walk ]));
  Alcotest.(check int) "tagged charge attributed in full" 25
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute; P.Fault_handling ]));
  (* 55 ns of CPU was charged (25 tagged + 30 untagged); the Prof.charge
     attribution names where the untagged 30 belongs, it adds nothing. *)
  Alcotest.(check int) "each ns once" 55 (sum_totals cap)

let test_suspend_resume_pending () =
  (* A fault handler accrues 100 ns of attribution, then a nested
     direct-reclaim episode runs with its own accrual and aggregate
     flush; the episode must not consume the handler's pending. *)
  let t = app_sink () in
  P.begin_phase t ~now:0 P.Fault_handling;
  P.charge_phase t P.Fault_handling 100;
  let saved = P.suspend_pending t in
  P.begin_phase t ~now:0 P.Evict_scan;
  P.charge_phase t P.Rmap_walk 30;
  P.on_cpu_charge t (-1) 40 (* episode flush: 30 covered, 10 remain *);
  P.end_phase t ~now:1;
  P.resume_pending t saved;
  P.on_cpu_charge t (-1) 100 (* segment flush: all covered *);
  P.end_phase t ~now:2;
  let cap = Option.get (P.capture t) in
  let fh = [ P.App_compute; P.Fault_handling ] in
  Alcotest.(check int) "handler attribution" 100
    (total cap ~cls:0 ~code:(P.path_code fh));
  Alcotest.(check int) "episode rmap" 30
    (total cap ~cls:0 ~code:(P.path_code (fh @ [ P.Evict_scan; P.Rmap_walk ])));
  Alcotest.(check int) "episode remainder" 10
    (total cap ~cls:0 ~code:(P.path_code (fh @ [ P.Evict_scan ])));
  Alcotest.(check int) "each ns once" 140 (sum_totals cap)

let test_enter_thread_resets_pending () =
  let t = P.create totals_only in
  P.register_thread t ~tid:0 ~name:"app0" ~klass:P.App ~default:P.App_compute;
  P.register_thread t ~tid:1 ~name:"app1" ~klass:P.App ~default:P.App_compute;
  P.enter_thread t ~tid:0;
  P.charge_phase t P.Rmap_walk 50;
  (* The flush never arrives: the scheduler switches threads. *)
  P.enter_thread t ~tid:1;
  P.on_cpu_charge t (-1) 80;
  let cap = Option.get (P.capture t) in
  Alcotest.(check int) "successor keeps its own charges" 80
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute ]));
  Alcotest.(check int) "stale pending dropped" 130 (sum_totals cap)

let test_waits_flat_and_pending_free () =
  let t = app_sink () in
  P.charge_phase t P.Pte_scan 60;
  P.wait t ~tid:0 ~now:1000 P.Swap_wait 500;
  P.on_cpu_charge t (-1) 60;
  let cap = Option.get (P.capture t) in
  Alcotest.(check int) "wait is flat" 500
    (total cap ~cls:0 ~code:(P.path_code [ P.Swap_wait ]));
  Alcotest.(check int) "pending untouched by the wait" 60
    (total cap ~cls:0 ~code:(P.path_code [ P.App_compute; P.Pte_scan ]))

let test_spans_recorded_only_when_on () =
  let quiet = app_sink () in
  P.begin_phase quiet ~now:10 P.Fault_handling;
  P.end_phase quiet ~now:30;
  Alcotest.(check int) "totals-only: no spans" 0
    (Array.length (Option.get (P.capture quiet)).P.spans);
  let t = P.create P.Spans in
  P.register_thread t ~tid:0 ~name:"app0" ~klass:P.App ~default:P.App_compute;
  P.enter_thread t ~tid:0;
  P.begin_phase t ~now:10 P.Fault_handling;
  P.end_phase t ~now:30;
  P.wait t ~tid:0 ~now:100 P.Swap_wait 40;
  P.mark t ~tid:0 ~now:150 P.Oom_kill;
  let cap = Option.get (P.capture t) in
  Alcotest.(check bool) "three spans" true
    (cap.P.spans
    = [|
        (0, P.phase_index P.Fault_handling, 10, 30);
        (0, P.phase_index P.Swap_wait, 60, 100);
        (0, P.phase_index P.Oom_kill, 150, 150);
      |])

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

let test_merge_sums_and_unifies_classes () =
  let mk names_charges =
    let t = P.create totals_only in
    List.iteri
      (fun tid (name, klass, default, ns) ->
        P.register_thread t ~tid ~name ~klass ~default;
        P.enter_thread t ~tid;
        P.on_cpu_charge t (-1) ns)
      names_charges;
    Option.get (P.capture t)
  in
  let a =
    mk
      [
        ("app0", P.App, P.App_compute, 10);
        ("kswapd", P.Kthread, P.Evict_scan, 20);
      ]
  in
  let b =
    mk
      [
        ("app0", P.App, P.App_compute, 1);
        ("lru_gen_aging", P.Kthread, P.Aging_walk, 2);
      ]
  in
  let m = P.merge [ a; b ] in
  Alcotest.(check (list string)) "first-appearance class order"
    [ "app"; "kswapd"; "lru_gen_aging" ]
    (Array.to_list m.P.m_classes);
  let find code cls =
    Array.fold_left
      (fun acc (c, p, ns) -> if c = cls && p = code then acc + ns else acc)
      0 m.P.m_totals
  in
  Alcotest.(check int) "app summed" 11 (find (P.path_code [ P.App_compute ]) 0);
  Alcotest.(check int) "kswapd kept" 20 (find (P.path_code [ P.Evict_scan ]) 1);
  Alcotest.(check int) "aging kept" 2 (find (P.path_code [ P.Aging_walk ]) 2);
  (* Merging the same list again is byte-identical. *)
  Alcotest.(check bool) "deterministic" true (P.merge [ a; b ] = m)

(* ------------------------------------------------------------------ *)
(* Machine-level behaviour                                             *)
(* ------------------------------------------------------------------ *)

let fast_profile = { R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }

let exp_for policy =
  { R.workload = R.Tpch; policy; ratio = 0.5; swap = R.Ssd; trial = 0 }

let profiled_result policy =
  let ctx = R.make_ctx ~profile:fast_profile ~obs:{ Obs.off with prof = totals_only } () in
  R.run_exp ctx (exp_for policy)

let test_profiling_does_not_perturb () =
  let plain =
    R.run_exp (R.make_ctx ~profile:fast_profile ()) (exp_for Policy.Registry.Clock)
  in
  let profiled = profiled_result Policy.Registry.Clock in
  Alcotest.(check bool) "plain has no profile" true (plain.M.profile = None);
  Alcotest.(check bool) "profiled has one" true (profiled.M.profile <> None);
  Alcotest.(check int) "runtime identical" plain.M.runtime_ns
    profiled.M.runtime_ns;
  Alcotest.(check int) "major faults identical" plain.M.major_faults
    profiled.M.major_faults;
  Alcotest.(check int) "cpu busy identical" plain.M.cpu_busy_ns
    profiled.M.cpu_busy_ns;
  Alcotest.(check bool) "all other counters identical" true
    ({ plain with M.profile = None } = { profiled with M.profile = None })

let cpu_and_rmap (cap : P.capture) =
  Array.fold_left
    (fun (cpu, rmap) (_, code, ns) ->
      match List.rev (P.path_phases code) with
      | leaf :: _ when not (P.wait_phase leaf) ->
        (cpu + ns, if leaf = P.Rmap_walk then rmap + ns else rmap)
      | _ -> (cpu, rmap))
    (0, 0) cap.P.totals

let test_every_ns_attributed_once () =
  (* The strongest profiler invariant: summing the non-wait leaf totals
     recovers the machine's CPU busy-time counter exactly. *)
  List.iter
    (fun policy ->
      let r = profiled_result policy in
      let cpu, _ = cpu_and_rmap (Option.get r.M.profile) in
      Alcotest.(check int)
        (Policy.Registry.name policy ^ " attribution complete")
        r.M.cpu_busy_ns cpu)
    [ Policy.Registry.Clock; Policy.Registry.Mglru_default ]

let test_clock_rmap_share_exceeds_mglru () =
  (* The paper's causal story (§V): CLOCK pays an rmap walk per scanned
     page while MG-LRU walks page tables instead, so under identical
     TPC-H pressure CLOCK's rmap share of CPU must dominate, and
     MG-LRU's PTE-scan/aging machinery must actually register. *)
  let share policy =
    let r = profiled_result policy in
    let cap = Option.get r.M.profile in
    let cpu, rmap = cpu_and_rmap cap in
    (float_of_int rmap /. float_of_int cpu, cap)
  in
  let clock_share, _ = share Policy.Registry.Clock in
  let mglru_share, mglru_cap = share Policy.Registry.Mglru_default in
  Alcotest.(check bool) "clock rmap share strictly larger" true
    (clock_share > mglru_share);
  let leaf_ns phase =
    Array.fold_left
      (fun acc (_, code, ns) ->
        match List.rev (P.path_phases code) with
        | leaf :: _ when leaf = phase -> acc + ns
        | _ -> acc)
      0 mglru_cap.P.totals
  in
  Alcotest.(check bool) "mglru shifts work to pte scans" true
    (leaf_ns P.Pte_scan > 0);
  Alcotest.(check bool) "mglru aging walks charged" true
    (leaf_ns P.Aging_walk > 0)

let test_thread_registry_and_kthread_classes () =
  let r = profiled_result Policy.Registry.Mglru_default in
  let cap = Option.get r.M.profile in
  Alcotest.(check (list string)) "classes"
    [ "app"; "kswapd"; "lru_gen_aging" ]
    (Array.to_list cap.P.classes);
  (* Threads are sorted by tid: the app threads first, then kthreads. *)
  Array.iteri
    (fun i (tid, _, _) -> Alcotest.(check int) "tid order" i tid)
    cap.P.threads;
  let by_class c =
    Array.to_list cap.P.threads
    |> List.filter_map (fun (_, name, cls) -> if cls = c then Some name else None)
  in
  Alcotest.(check bool) "several app threads" true (List.length (by_class 0) > 1);
  Alcotest.(check (list string)) "kswapd class" [ "kswapd" ] (by_class 1);
  Alcotest.(check (list string)) "aging class" [ "lru_gen_aging" ] (by_class 2)

let test_journal_round_trips_profile () =
  let r = profiled_result Policy.Registry.Clock in
  let record =
    { Repro_core.Journal.key = "k"; status = Repro_core.Journal.Trial_ok;
      reason = ""; result = Some { r with M.trace = None } }
  in
  match Repro_core.Journal.record_of_line (Repro_core.Journal.record_to_line record) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok got -> (
    match got.Repro_core.Journal.result with
    | Some res ->
      Alcotest.(check bool) "profile survives the journal" true
        (res.M.profile = r.M.profile)
    | None -> Alcotest.fail "lost the result")

let test_merge_matches_parallel_merge () =
  (* profile_cells merges in trial order from the deterministic log, so
     two contexts at different --jobs agree byte-for-byte. *)
  let cells jobs =
    let ctx = R.make_ctx ~profile:{ R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
        ~jobs ~obs:{ Obs.off with prof = totals_only } ()
    in
    R.prefetch ctx
      (List.concat_map
         (fun policy ->
           R.cell_exps ctx ~workload:R.Tpch ~policy ~ratio:0.5 ~swap:R.Ssd)
         [ Policy.Registry.Clock; Policy.Registry.Mglru_default ]);
    List.map (fun (e, m) -> (R.exp_key e, m)) (R.profile_cells ctx)
  in
  let serial = cells 1 and parallel = cells 4 in
  Alcotest.(check int) "two cells" 2 (List.length serial);
  Alcotest.(check bool) "identical across jobs" true (serial = parallel)

let () =
  Alcotest.run "prof"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "phases" `Quick test_taxonomy;
          Alcotest.test_case "path codes" `Quick test_path_codes;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_noops;
          Alcotest.test_case "untagged in enclosing span" `Quick
            test_untagged_lands_in_enclosing_span;
          Alcotest.test_case "pending consumed once" `Quick
            test_tagged_charge_consumed_by_untagged_flush;
          Alcotest.test_case "tagged cpu charge" `Quick
            test_explicitly_tagged_cpu_charge_skips_pending;
          Alcotest.test_case "suspend/resume pending" `Quick
            test_suspend_resume_pending;
          Alcotest.test_case "enter_thread resets pending" `Quick
            test_enter_thread_resets_pending;
          Alcotest.test_case "waits" `Quick test_waits_flat_and_pending_free;
          Alcotest.test_case "spans" `Quick test_spans_recorded_only_when_on;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "merge" `Quick test_merge_sums_and_unifies_classes;
        ] );
      ( "machine",
        [
          Alcotest.test_case "no perturbation" `Quick
            test_profiling_does_not_perturb;
          Alcotest.test_case "every ns once" `Quick test_every_ns_attributed_once;
          Alcotest.test_case "clock rmap > mglru" `Quick
            test_clock_rmap_share_exceeds_mglru;
          Alcotest.test_case "thread registry" `Quick
            test_thread_registry_and_kthread_classes;
          Alcotest.test_case "journal round-trip" `Quick
            test_journal_round_trips_profile;
          Alcotest.test_case "parallel merge determinism" `Quick
            test_merge_matches_parallel_merge;
        ] );
    ]
