module R = Repro_core.Runner
module M = Repro_core.Machine
module V = Obs.Vmstat

(* Fast, explicit profile: no environment round-trips. *)
let fast_profile = { R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }

let ctx = R.make_ctx ~profile:fast_profile ()

let test_ctx_fields () =
  let p = R.profile ctx in
  Alcotest.(check bool) "fast" true p.R.fast;
  Alcotest.(check int) "trials" 2 p.R.trials;
  Alcotest.(check int) "ycsb trials" 1 p.R.ycsb_trials;
  Alcotest.(check int) "trials_for tpch" 2 (R.trials_for ctx R.Tpch);
  Alcotest.(check int) "trials_for ycsb" 1
    (R.trials_for ctx (R.Ycsb Workload.Ycsb.A));
  Alcotest.(check int) "default jobs" 1 (R.jobs ctx);
  Alcotest.(check bool) "no faults by default" true
    (Swapdev.Faulty_device.is_none (R.fault_plan ctx));
  Alcotest.(check int) "audits end-of-run only" 0 (R.audit_every_ns ctx)

let test_make_ctx_clamps () =
  let c = R.make_ctx ~profile:fast_profile ~jobs:0 ~audit_every_ns:(-5) () in
  Alcotest.(check int) "jobs clamped to 1" 1 (R.jobs c);
  Alcotest.(check int) "audit clamped to 0" 0 (R.audit_every_ns c)

let test_profile_defaults () =
  Alcotest.(check int) "default trials" 25 R.default_profile.R.trials;
  Alcotest.(check int) "default ycsb trials" 2 R.default_profile.R.ycsb_trials;
  Alcotest.(check bool) "default full-size" false R.default_profile.R.fast;
  Alcotest.(check int) "default scale" 1 R.default_profile.R.scale;
  Alcotest.(check bool) "make_ctx defaults to it" true
    (R.profile (R.make_ctx ()) = R.default_profile)

let test_names () =
  Alcotest.(check string) "tpch" "tpch" (R.workload_kind_name R.Tpch);
  Alcotest.(check string) "ycsb" "ycsb-b" (R.workload_kind_name (R.Ycsb Workload.Ycsb.B));
  Alcotest.(check string) "swap" "zram" (R.swap_name R.Zram);
  Alcotest.(check int) "five workloads" 5 (List.length R.all_workloads)

(* The CLI, the fuzzer and the fingerprint read names through these
   inverses, so every printed name must parse back to its value. *)
let test_names_round_trip () =
  List.iter
    (fun w ->
      let n = R.workload_kind_name w in
      Alcotest.(check bool) n true (R.workload_of_name n = Some w))
    R.all_workloads;
  List.iter
    (fun m ->
      let n = R.swap_name m in
      Alcotest.(check bool) n true (R.swap_of_name n = Some m))
    R.all_swaps;
  Alcotest.(check (list string)) "fault plans" [ "none"; "light"; "heavy" ]
    Swapdev.Faulty_device.plan_names;
  List.iter
    (fun n ->
      Alcotest.(check bool) n true (Swapdev.Faulty_device.plan_of_name n <> None))
    Swapdev.Faulty_device.plan_names;
  Alcotest.(check bool) "fleet is not a named workload" true
    (R.workload_of_name "fleet3-h1" = None);
  Alcotest.(check bool) "unknown swap" true (R.swap_of_name "nvme" = None);
  Alcotest.(check bool) "unknown plan" true
    (Swapdev.Faulty_device.plan_of_name "medium" = None)

let test_exp_key_injective () =
  let exp policy =
    { R.workload = R.Tpch; policy; ratio = 0.5; swap = R.Ssd; trial = 0 }
  in
  let base = Policy.Registry.Mglru_default in
  let custom gens = Policy.Registry.Mglru_custom
      { Policy.Mglru.default_config with Policy.Mglru.max_gens = gens }
  in
  (* Display names may collide; cache keys must not. *)
  Alcotest.(check bool) "distinct customs distinct keys" true
    (R.exp_key (exp (custom 2)) <> R.exp_key (exp (custom 8)));
  Alcotest.(check bool) "custom differs from default" true
    (R.exp_key (exp base) <> R.exp_key (exp (custom 4)));
  Alcotest.(check bool) "scan-rand p encoded" true
    (R.exp_key (exp (Policy.Registry.Scan_rand 0.25))
    <> R.exp_key (exp (Policy.Registry.Scan_rand 0.5)));
  Alcotest.(check bool) "trial encoded" true
    (R.exp_key (exp base)
    <> R.exp_key { (exp base) with R.trial = 1 })

let test_workload_seeds_paired () =
  (* Same (kind, trial) must build identical workloads regardless of
     policy: check footprints and first steps match. *)
  let w1 = R.make_workload ctx R.Tpch ~trial:3 in
  let w2 = R.make_workload ctx R.Tpch ~trial:3 in
  Alcotest.(check int) "same footprint" (Workload.Chunk.packed_footprint w1)
    (Workload.Chunk.packed_footprint w2);
  let s1 = Workload.Chunk.packed_next w1 ~tid:0 in
  let s2 = Workload.Chunk.packed_next w2 ~tid:0 in
  Alcotest.(check bool) "same first step" true (s1 = s2)

let test_run_exp_cached () =
  let c = R.make_ctx ~profile:fast_profile () in
  let e = { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
            swap = R.Ssd; trial = 0 } in
  Alcotest.(check int) "fresh ctx empty" 0 (R.cached_results c);
  let r1 = R.run_exp c e in
  Alcotest.(check int) "one result memoized" 1 (R.cached_results c);
  let r2 = R.run_exp c e in
  Alcotest.(check bool) "cache returns same result" true (r1 == r2);
  (* A fresh context recomputes deterministically. *)
  let c' = R.make_ctx ~profile:fast_profile () in
  let r3 = R.run_exp c' e in
  Alcotest.(check bool) "recomputed deterministically" true
    (r3.Repro_core.Machine.runtime_ns = r1.Repro_core.Machine.runtime_ns)

let test_ctx_caches_isolated () =
  (* Two contexts with different fault plans must not share results. *)
  let e = { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
            swap = R.Ssd; trial = 0 } in
  let clean = R.make_ctx ~profile:fast_profile () in
  let faulty =
    R.make_ctx ~profile:fast_profile ~fault_plan:Swapdev.Faulty_device.heavy ()
  in
  let r_clean = R.run_exp clean e in
  let r_faulty = R.run_exp faulty e in
  Alcotest.(check bool) "distinct results" true (r_clean != r_faulty);
  let injected r =
    M.count r V.injected_transient + M.count r V.injected_permanent
    + M.count r V.injected_stalls
    + M.count r V.injected_tail_spikes
  in
  Alcotest.(check bool) "faults only under the faulty plan" true
    (injected r_clean = 0 && injected r_faulty > 0)

let test_derived_share_store () =
  (* A chaos derivation shares its parent's store but never its results;
     an identical second derivation finds the first one's. *)
  let e = { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
            swap = R.Ssd; trial = 0 } in
  let spec =
    Result.get_ok
      (Repro_core.Chaos.parse_spec "hotplug:at=20s,shrink=40%,restore=40s")
  in
  let parent = R.make_ctx ~profile:fast_profile () in
  let derived = R.derive ~chaos:(Some spec) parent in
  let r_parent = R.run_exp parent e in
  let r_derived = R.run_exp derived e in
  Alcotest.(check bool) "parent result is chaos-free" true
    (r_parent.M.chaos = None);
  Alcotest.(check bool) "derived result ran the chaos spec" true
    (r_derived.M.chaos <> None);
  Alcotest.(check bool) "results differ" true
    (r_parent.M.runtime_ns <> r_derived.M.runtime_ns);
  Alcotest.(check int) "both in one store" 2 (R.cached_results parent);
  let again = R.derive ~chaos:(Some spec) parent in
  Alcotest.(check bool) "identical derivation hits the shared cache" true
    (R.run_exp again e == r_derived);
  let stripped = R.derive ~chaos:None derived in
  Alcotest.(check bool) "stripping the spec finds the parent's result" true
    (R.run_exp stripped e == r_parent);
  Alcotest.(check int) "nothing recomputed" 2 (R.cached_results parent)

(* Two derivations with the root's inputs share its key: requesting
   through both logs the key once, so its counters and its failure are
   read back once. *)
let test_shared_key_logged_once () =
  let root = R.make_ctx ~profile:fast_profile () in
  let d1 = R.derive ~chaos:None root in
  let d2 = R.derive ~cgroups:None root in
  let ok = { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
             swap = R.Ssd; trial = 0 } in
  let bad = { ok with R.policy = Policy.Registry.Crash_test } in
  let r = R.run_exp d1 ok in
  Alcotest.(check bool) "second context hits" true (R.run_exp d2 ok == r);
  ignore (R.try_exp d1 bad);
  ignore (R.try_exp d2 bad);
  Alcotest.(check int) "two outcomes stored" 2 (R.cached_results root);
  (match R.vmstat_cells root with
  | [ (_, c) ] ->
    Alcotest.(check bool) "counters read once" true (c = r.M.counters)
  | l -> Alcotest.failf "expected one cell, got %d" (List.length l));
  Alcotest.(check int) "failure read once" 1 (List.length (R.failures root))

let test_run_cell () =
  let results =
    R.run_cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Clock ~ratio:0.5
      ~swap:R.Ssd
  in
  Alcotest.(check int) "trials per profile" 2 (List.length results);
  let rts = R.runtimes_s results in
  Alcotest.(check bool) "runtimes positive" true (Array.for_all (fun x -> x > 0.0) rts);
  Alcotest.(check bool) "mean positive" true (R.mean_runtime_s results > 0.0);
  Alcotest.(check bool) "faults positive" true (R.mean_faults results > 0.0)

let test_prefetch_dedupes () =
  let c = R.make_ctx ~profile:fast_profile () in
  let e = { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
            swap = R.Ssd; trial = 0 } in
  R.prefetch c [ e; e; e ];
  Alcotest.(check int) "one cached result" 1 (R.cached_results c)

let test_capacity_scales_with_ratio () =
  let small =
    R.run_exp ctx
      { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.5;
        swap = R.Ssd; trial = 0 }
  in
  let large =
    R.run_exp ctx
      { R.workload = R.Tpch; policy = Policy.Registry.Clock; ratio = 0.9;
        swap = R.Ssd; trial = 0 }
  in
  Alcotest.(check bool) "more memory, fewer faults" true
    (large.Repro_core.Machine.major_faults < small.Repro_core.Machine.major_faults)

let test_pooled_latencies () =
  let results =
    R.run_cell ctx ~workload:(R.Ycsb Workload.Ycsb.A)
      ~policy:Policy.Registry.Clock ~ratio:0.5 ~swap:R.Zram
  in
  let reads = Structures.Latencies.to_array (R.pooled_read_latencies results) in
  let writes = Structures.Latencies.to_array (R.pooled_write_latencies results) in
  Alcotest.(check bool) "reads recorded" true (Array.length reads > 1000);
  Alcotest.(check bool) "writes recorded" true (Array.length writes > 100);
  (* Pooling merges the stored trials: the sorted concatenation. *)
  let concat pick =
    let a =
      Array.concat (List.map (fun r -> Structures.Latencies.to_array (pick r)) results)
    in
    Array.sort Int.compare a;
    a
  in
  Alcotest.(check (array int)) "reads merged"
    (concat (fun r -> r.Repro_core.Machine.read_latencies)) reads;
  Alcotest.(check (array int)) "writes merged"
    (concat (fun r -> r.Repro_core.Machine.write_latencies)) writes

let test_capacity_floor () =
  List.iter
    (fun (footprint, ratio) ->
      Alcotest.(check int)
        (Printf.sprintf "footprint %d at %g" footprint ratio)
        64 (R.capacity_for ~footprint ~ratio))
    [ (0, 0.5); (10, 0.9); (127, 0.5); (64, 1.0) ]

let test_capacity_proportional () =
  Alcotest.(check int) "half" 500 (R.capacity_for ~footprint:1000 ~ratio:0.5);
  Alcotest.(check int) "ninety percent" 900
    (R.capacity_for ~footprint:1000 ~ratio:0.9);
  Alcotest.(check int) "truncated" 333
    (R.capacity_for ~footprint:1000 ~ratio:0.3337);
  Alcotest.(check int) "all of it" 4096
    (R.capacity_for ~footprint:4096 ~ratio:1.0)

let prop_capacity_monotone =
  QCheck.Test.make ~name:"capacity >= 64 and monotone in ratio" ~count:300
    QCheck.(triple (int_bound 1_000_000) (float_bound_inclusive 1.0)
              (float_bound_inclusive 1.0))
    (fun (footprint, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let c_lo = R.capacity_for ~footprint ~ratio:lo in
      let c_hi = R.capacity_for ~footprint ~ratio:hi in
      c_lo >= 64 && c_lo <= c_hi && c_hi <= max 64 footprint)

let () =
  Alcotest.run "runner"
    [
      ( "unit",
        [
          Alcotest.test_case "ctx fields" `Quick test_ctx_fields;
          Alcotest.test_case "make_ctx clamps" `Quick test_make_ctx_clamps;
          Alcotest.test_case "profile defaults" `Quick test_profile_defaults;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
          Alcotest.test_case "exp_key injective" `Quick test_exp_key_injective;
          Alcotest.test_case "paired seeds" `Quick test_workload_seeds_paired;
          Alcotest.test_case "cache" `Quick test_run_exp_cached;
          Alcotest.test_case "ctx caches isolated" `Quick test_ctx_caches_isolated;
          Alcotest.test_case "derived contexts share one store" `Quick
            test_derived_share_store;
          Alcotest.test_case "shared key logged once" `Quick
            test_shared_key_logged_once;
          Alcotest.test_case "run_cell" `Quick test_run_cell;
          Alcotest.test_case "prefetch dedupes" `Quick test_prefetch_dedupes;
          Alcotest.test_case "ratio scaling" `Quick test_capacity_scales_with_ratio;
          Alcotest.test_case "pooled latencies" `Quick test_pooled_latencies;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "floor of 64 frames" `Quick test_capacity_floor;
          Alcotest.test_case "proportional to footprint" `Quick
            test_capacity_proportional;
          QCheck_alcotest.to_alcotest prop_capacity_monotone;
        ] );
    ]
