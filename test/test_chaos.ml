module C = Repro_core.Chaos
module I = Repro_core.Invariants
module M = Repro_core.Machine
module F = Repro_core.Fuzz
module SM = Swapdev.Swap_manager
module V = Obs.Vmstat

(* ------------------------------------------------------------------ *)
(* Spec grammar: qcheck round-trip over well-formed specs              *)
(* ------------------------------------------------------------------ *)

(* Injector [i] lives entirely inside its own 10ms decade, so same-class
   windows can never overlap and same-time churn pairs cannot occur —
   every generated spec is valid by construction. *)
let ms = 1_000_000

let gen_amount =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Mem.Spec_syntax.Pages p) (1 -- 500);
        map (fun k -> Mem.Spec_syntax.Frac (float_of_int k /. 100.0)) (1 -- 99);
      ])

let gen_prob = QCheck.Gen.(map (fun k -> float_of_int k /. 100.0) (1 -- 99))

let gen_injector ~last i =
  let open QCheck.Gen in
  let* a = 1 -- 4 in
  let* d = 1 -- 4 in
  let at = ((10 * i) + a) * ms in
  let dur = d * ms in
  let gen_hotplug =
    let* shrink = gen_amount in
    (* A hotplug without restore= holds its window open to the end of
       time, so it is only valid as the final segment. *)
    let* restore =
      if last then oneof [ return None; return (Some (at + dur)) ]
      else return (Some (at + dur))
    in
    return (C.Hotplug { h_at = at; h_shrink = shrink; h_restore = restore })
  in
  let gen_degrade =
    (* At least one knob must be non-neutral or the rendering drops
       every field and the parser rejects it. *)
    let* lat = oneof [ return 1.0; map float_of_int (2 -- 16) ] in
    let* errs = if lat = 1.0 then gen_prob else oneof [ return 0.0; gen_prob ] in
    let* wear = oneof [ return 0.0; gen_prob ] in
    return
      (C.Degrade
         { d_at = at; d_for = dur; d_latency = lat; d_errors = errs; d_wear = wear })
  in
  let gen_churn =
    let* cg = oneofl [ "app"; "db"; "bg" ] in
    let* low = oneof [ return None; map Option.some gen_amount ] in
    let* high = oneof [ return None; map Option.some gen_amount ] in
    let* max_ =
      if low = None && high = None then map Option.some gen_amount
      else oneof [ return None; map Option.some gen_amount ]
    in
    return (C.Churn { c_at = at; c_cg = cg; c_low = low; c_high = high; c_max = max_ })
  in
  let gen_burst =
    let* threads =
      oneofl [ []; [ (0, 0) ]; [ (0, 1) ]; [ (1, 3) ]; [ (0, 0); (2, 3) ] ]
    in
    return (C.Burst { b_at = at; b_for = dur; b_threads = threads })
  in
  oneof [ gen_hotplug; gen_degrade; gen_churn; gen_burst; return (C.Corrupt { x_at = at }) ]

let gen_spec =
  QCheck.Gen.(
    let* n = 1 -- 4 in
    let* injs = flatten_l (List.init n (fun i -> gen_injector ~last:(i = n - 1) i)) in
    return { C.injectors = injs })

let arb_spec =
  QCheck.make ~print:(fun s -> C.spec_to_string s) gen_spec

let qcheck_round_trip =
  QCheck.Test.make ~count:500 ~name:"spec_to_string round-trips through parse_spec"
    arb_spec (fun spec ->
      match C.parse_spec (C.spec_to_string spec) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_reportf "rejected %S: %s" (C.spec_to_string spec) e)

let qcheck_canonical =
  QCheck.Test.make ~count:500 ~name:"spec_to_string is a fixpoint of parse_spec"
    arb_spec (fun spec ->
      let s = C.spec_to_string spec in
      match C.parse_spec s with
      | Ok spec' -> C.spec_to_string spec' = s
      | Error e -> QCheck.Test.fail_reportf "rejected %S: %s" s e)

(* ------------------------------------------------------------------ *)
(* Rejection: exact line-and-column diagnostics                        *)
(* ------------------------------------------------------------------ *)

let rejects spec want () =
  match C.parse_spec spec with
  | Ok s ->
    Alcotest.failf "parse_spec %S accepted as %S" spec (C.spec_to_string s)
  | Error got -> Alcotest.(check string) spec want got

let rejection_cases =
  [
    ("hotplug:at=-5ms,shrink=10", "1:12: at: negative time \"-5ms\"");
    ("hotplug:at=zzz,shrink=10", "1:12: at: bad time \"zzz\"");
    ("hotplug:at=1ms,shrink=0", "1:23: shrink: must offline at least one frame");
    ( "hotplug:at=1ms,shrink=120%",
      "1:23: shrink: cannot offline all of memory (want < 100%)" );
    ("hotplug:at=5ms,shrink=10,restore=2ms", "1:34: restore: must be after at=");
    ("hotplug:at=1ms,shrink=10,bogus=3", "1:1: hotplug: unknown key \"bogus\"");
    ("hotplug:shrink=10", "1:1: hotplug: missing at=");
    ("degrade:at=1ms,for=0,latency=2x", "1:20: for: must be positive");
    ( "degrade:at=1ms,for=2ms",
      "1:1: degrade: needs at least one of latency=, errors=, wear=" );
    ( "degrade:at=1ms,for=2ms,latency=0.5x",
      "1:32: latency: bad multiplier \"0.5x\" (want >=1x)" );
    ( "degrade:at=1ms,for=2ms,latency=8",
      "1:32: latency: bad multiplier \"8\" (want e.g. 8x)" );
    ( "degrade:at=1ms,for=2ms,errors=1.5",
      "1:31: errors: bad probability \"1.5\" (want 0..1)" );
    ("churn:at=1ms,cg=app", "1:1: churn: needs at least one of low=, high=, max=");
    ( "churn:at=1ms,cg=bad name,max=50%",
      "1:17: cg: bad cgroup name \"bad name\"" );
    ("burst:at=1ms,for=2ms,threads=3-1", "1:30: threads: bad thread range \"3-1\"");
    ("corrupt:at=1ms,extra=1", "1:1: corrupt: unknown key \"extra\"");
    ("", "1:1: empty --chaos spec");
    ("frobnicate:at=1ms", "1:1: unknown injector \"frobnicate\"");
    ( "hotplug:at=1ms,shrink=10,restore=5ms;hotplug:at=2ms,shrink=5,restore=3ms",
      "1:38: hotplug: window overlaps an earlier hotplug window" );
    ( "degrade:at=1ms,for=10ms,latency=2x;degrade:at=5ms,for=2ms,errors=0.1",
      "1:36: degrade: window overlaps an earlier degrade window" );
    ( "burst:at=1ms,for=10ms,threads=0-1;burst:at=5ms,for=2ms,threads=1-2",
      "1:35: burst: window overlaps an earlier burst window" );
    ( "churn:at=1ms,cg=app,max=50%;churn:at=1ms,cg=app,max=10",
      "1:29: churn: duplicate update of the same cgroup at the same time" );
  ]

(* Times under 1 ns or past max_int ns, and windows that end past it:
   refused, not read as 0 or wrapped to a negative time. *)
let time_range_cases =
  [
    ("hotplug:at=0.0001us,shrink=10", "1:12: at: time \"0.0001us\" is under 1ns");
    ("hotplug:at=1e300s,shrink=10", "1:12: at: time \"1e300s\" out of range");
    ( "degrade:at=1ms,for=0.0001us,latency=2x",
      "1:20: for: time \"0.0001us\" is under 1ns" );
    ("degrade:at=1ms,for=1e300s,latency=2x", "1:20: for: time \"1e300s\" out of range");
    ("burst:at=1e300s,for=1ms", "1:10: at: time \"1e300s\" out of range");
    ("burst:at=1ms,for=0.0001us", "1:18: for: time \"0.0001us\" is under 1ns");
    ( "degrade:at=3000000000s,for=3000000000s,latency=2x",
      "1:28: for: window ends past the largest time" );
  ]

let test_accepts_disjoint_bursts () =
  (* Same class, overlapping windows, but disjoint thread sets: legal. *)
  match C.parse_spec "burst:at=1ms,for=10ms,threads=0-1;burst:at=5ms,for=2ms,threads=2-3" with
  | Ok s -> Alcotest.(check int) "two injectors" 2 (List.length s.C.injectors)
  | Error e -> Alcotest.failf "rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Invariants: hotplug audits                                          *)
(* ------------------------------------------------------------------ *)

type world = {
  pt : Mem.Page_table.t;
  frames : Mem.Frame_table.t;
  mem : Mem.Phys_mem.t;
  swap : SM.t;
  page_state : Repro_core.Page_state.t;
}

let pages = 32

let make_world () =
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  {
    pt = Mem.Page_table.create ~region_size:8 ~pages ();
    frames = Mem.Frame_table.create ~frames:8;
    mem = Mem.Phys_mem.create ~frames:8 ();
    swap = SM.create ~device:dev ~seed:5 ();
    page_state = Repro_core.Page_state.create ~pages;
  }

let audit ?last_chaos w =
  I.audit ~last_chaos ~memcg:None ~killed:None ~pt:w.pt ~frames:w.frames
    ~mem:w.mem ~swap:w.swap ~pages:w.page_state

let map w ~vpn =
  match Mem.Phys_mem.alloc w.mem with
  | None -> Alcotest.fail "out of frames in test setup"
  | Some pfn ->
    Mem.Frame_table.set_owner w.frames ~pfn ~vpn;
    Mem.Page_table.set w.pt vpn (Mem.Pte.mapped ~pfn ~file_backed:false);
    pfn

let checks violations = List.map (fun v -> v.I.check) violations

let test_offline_free_frame_clean () =
  let w = make_world () in
  let _pfn = map w ~vpn:3 in
  (* Offlining a *free* frame keeps every account balanced. *)
  (match Mem.Phys_mem.alloc w.mem with
  | None -> Alcotest.fail "out of frames"
  | Some pfn ->
    Mem.Phys_mem.free w.mem pfn;
    Mem.Phys_mem.offline_free w.mem pfn);
  Alcotest.(check (list string)) "no violations" [] (checks (audit w))

let test_detects_pte_on_offline_frame () =
  let w = make_world () in
  let pfn = map w ~vpn:4 in
  (* Offline a frame that is still mapped: the PTE check, the per-frame
     check, and the hotplug scan must all fire. *)
  Mem.Phys_mem.offline_used w.mem pfn;
  let cs = checks (audit w) in
  Alcotest.(check bool) "pte-offline-frame" true (List.mem "pte-offline-frame" cs);
  Alcotest.(check bool) "frame-offline" true (List.mem "frame-offline" cs);
  Alcotest.(check bool) "hotplug-offline-mapped" true
    (List.mem "hotplug-offline-mapped" cs)

let test_detects_online_count_balance () =
  let w = make_world () in
  (* Allocate-then-leak against a shrunk population: used+free must
     still equal the online count, and the scan must agree. *)
  (match Mem.Phys_mem.alloc w.mem with
  | None -> Alcotest.fail "out of frames"
  | Some pfn ->
    Mem.Phys_mem.free w.mem pfn;
    Mem.Phys_mem.offline_free w.mem pfn);
  Alcotest.(check int) "online count shrank" 7 (Mem.Phys_mem.online_count w.mem);
  Alcotest.(check (list string)) "still balanced" [] (checks (audit w))

let test_last_chaos_stamped () =
  let w = make_world () in
  let pfn = map w ~vpn:2 in
  Mem.Phys_mem.offline_used w.mem pfn;
  let vs = audit ~last_chaos:"hotplug: offline 3 frames" w in
  Alcotest.(check bool) "violations found" true (vs <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "detail names the trigger" true
        (let needle = "last chaos: hotplug: offline 3 frames" in
         let n = String.length needle and h = String.length v.I.detail in
         let rec scan i = i + n <= h && (String.sub v.I.detail i n = needle || scan (i + 1)) in
         scan 0))
    vs

(* ------------------------------------------------------------------ *)
(* Machine-level: each injector class end-to-end                       *)
(* ------------------------------------------------------------------ *)

let mk_trace_workload () =
  let lists =
    List.init 4 (fun t ->
        Array.init 512 (fun i -> ((i * (t + 3)) + (t * 61)) mod 256))
  in
  Workload.Trace.of_page_lists ~footprint:256 lists

let base_cfg ?(obs = Obs.off) ?cgroups ?chaos () =
  {
    (M.default_config ~capacity_frames:64 ~seed:11) with
    M.kthread_jitter_ns = 0;
    audit_every_ns = 1_000_000;
    obs;
    cgroups;
    chaos;
  }

let run_cfg cfg =
  M.run cfg
    ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
    ~workload:(Workload.Chunk.Packed ((module Workload.Trace), mk_trace_workload ()))

let baseline = lazy (run_cfg (base_cfg ()))

let window () =
  (* Put the transient window well inside the calibrated runtime. *)
  let r = (Lazy.force baseline).M.runtime_ns in
  (r / 4, max 1 (r / 4))

let summary_of r =
  match r.M.chaos with
  | Some s -> s
  | None -> Alcotest.fail "chaos summary missing on a chaos run"

let test_machine_hotplug () =
  let at, dur = window () in
  let spec =
    { C.injectors =
        [ C.Hotplug { h_at = at; h_shrink = Mem.Spec_syntax.Frac 0.4; h_restore = Some (at + dur) } ] }
  in
  let r = run_cfg (base_cfg ~chaos:spec ()) in
  let s = summary_of r in
  Alcotest.(check bool) "events fired" true (s.C.s_events >= 2);
  Alcotest.(check bool) "frames offlined" true (s.C.s_offlined > 0);
  Alcotest.(check int) "all back online" s.C.s_offlined s.C.s_onlined;
  Alcotest.(check int) "audits clean" 0 (M.count r V.invariant_violations)

let test_machine_degrade () =
  let at, dur = window () in
  let spec =
    { C.injectors =
        [ C.Degrade
            { d_at = at; d_for = dur; d_latency = 4.0; d_errors = 0.0; d_wear = 0.0 } ] }
  in
  let r = run_cfg (base_cfg ~chaos:spec ()) in
  let s = summary_of r in
  Alcotest.(check int) "one degraded phase" 1 s.C.s_device_phases;
  Alcotest.(check int) "set and clear both fired" 2 s.C.s_events;
  Alcotest.(check int) "audits clean" 0 (M.count r V.invariant_violations);
  let b = Lazy.force baseline in
  Alcotest.(check bool) "degradation costs simulated time" true
    (r.M.runtime_ns >= b.M.runtime_ns)

let test_machine_churn () =
  let at, dur = window () in
  let cgroups : Mem.Memcg.spec =
    {
      groups =
        [ { Mem.Memcg.g_name = "app"; g_threads = [ (0, 0) ];
            g_low = None; g_high = None; g_max = None } ];
      proactive = None;
      psi_interval_ns = 100_000_000;
    }
  in
  let spec =
    { C.injectors =
        [ C.Churn { c_at = at; c_cg = "app"; c_low = None; c_high = None;
                    c_max = Some (Mem.Spec_syntax.Frac 0.5) };
          C.Churn { c_at = at + dur; c_cg = "app"; c_low = None; c_high = None;
                    c_max = Some (Mem.Spec_syntax.Frac 1.0) } ] }
  in
  let r = run_cfg (base_cfg ~cgroups ~chaos:spec ()) in
  let s = summary_of r in
  Alcotest.(check int) "two limit rewrites" 2 s.C.s_limit_updates;
  Alcotest.(check int) "audits clean" 0 (M.count r V.invariant_violations)

let test_machine_burst () =
  let at, dur = window () in
  let spec =
    (* threads= omitted: stall every thread of the (single-threaded)
       trace script. *)
    { C.injectors = [ C.Burst { b_at = at; b_for = dur; b_threads = [] } ] }
  in
  let r = run_cfg (base_cfg ~chaos:spec ()) in
  let s = summary_of r in
  Alcotest.(check int) "the thread stalled" 1 s.C.s_stalled_threads;
  Alcotest.(check int) "audits clean" 0 (M.count r V.invariant_violations)

let test_machine_corrupt_detected () =
  let at, _ = window () in
  let spec = { C.injectors = [ C.Corrupt { x_at = at } ] } in
  let r = run_cfg (base_cfg ~chaos:spec ()) in
  let s = summary_of r in
  Alcotest.(check int) "one frame corrupted" 1 s.C.s_corrupted;
  Alcotest.(check bool) "forced audit caught it" true
    (M.count r V.invariant_violations > 0)

let test_machine_chaos_traced () =
  let at, dur = window () in
  let spec =
    { C.injectors =
        [ C.Hotplug { h_at = at; h_shrink = Mem.Spec_syntax.Frac 0.3; h_restore = Some (at + dur) } ] }
  in
  let obs = { Obs.off with trace = true; sample_every_ns = 0 } in
  let r = run_cfg (base_cfg ~obs ~chaos:spec ()) in
  match r.M.trace with
  | None -> Alcotest.fail "trace capture missing"
  | Some cap ->
    let chaos_evs =
      Array.to_list cap.Obs.events
      |> List.filter_map (fun (_, ev) ->
             match ev with
             | Obs.Chaos { injector; _ } -> Some injector
             | _ -> None)
    in
    Alcotest.(check bool) "hotplug events in trace" true
      (List.mem "hotplug" chaos_evs)

let test_machine_future_chaos_inert () =
  (* A schedule entirely past the end of the run must not perturb the
     simulation: every behavioural field matches the chaos-free run. *)
  let b = Lazy.force baseline in
  let far = (b.M.runtime_ns * 10) + 1 in
  let spec =
    { C.injectors = [ C.Burst { b_at = far; b_for = ms; b_threads = [] } ] }
  in
  let r = run_cfg (base_cfg ~chaos:spec ()) in
  Alcotest.(check int) "runtime" b.M.runtime_ns r.M.runtime_ns;
  Alcotest.(check int) "major faults" b.M.major_faults r.M.major_faults;
  Alcotest.(check int) "minor faults" b.M.minor_faults r.M.minor_faults;
  Alcotest.(check int) "swap ins" (M.count b V.pswpin) (M.count r V.pswpin);
  Alcotest.(check int) "swap outs" (M.count b V.pswpout) (M.count r V.pswpout);
  Alcotest.(check int) "oom kills"
    (M.count b V.oom_kill) (M.count r V.oom_kill);
  Alcotest.(check (array int)) "read latencies"
    b.M.read_latencies r.M.read_latencies;
  Alcotest.(check int) "no events fired" 0 (summary_of r).C.s_events

(* ------------------------------------------------------------------ *)
(* Fuzz driver: config codec, oracle, shrink                           *)
(* ------------------------------------------------------------------ *)

let cfg_of s =
  match F.config_of_string s with
  | Ok c -> c
  | Error e -> Alcotest.failf "config %S rejected: %s" s e

let test_fuzz_config_round_trip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (F.config_to_string (cfg_of s)))
    [
      "w=tpch p=clock r=0.5 s=ssd f=none";
      "w=pagerank p=mglru r=0.9 s=zram f=light";
      "w=tpch p=clock r=0.5 s=ssd f=none cg=app:threads=0-1,max=50%";
      "w=tpch p=clock r=0.5 s=ssd f=none ch=corrupt:at=1s";
      "w=tpch p=clock r=0.75 s=ssd f=none cg=app:threads=0-1,max=50% \
       ch=degrade:at=5ms,for=2ms,latency=4x";
    ]

let test_fuzz_config_rejects () =
  List.iter
    (fun s ->
      match F.config_of_string s with
      | Ok _ -> Alcotest.failf "config %S accepted" s
      | Error _ -> ())
    [
      "w=tpch extra";
      "w=nosuch p=clock r=0.5 s=ssd f=none";
      "w=tpch p=nosuch r=0.5 s=ssd f=none";
      "w=tpch p=clock r=-1 s=ssd f=none";
      "w=tpch p=clock r=0.5 s=floppy f=none";
      "w=tpch p=clock r=0.5 s=ssd f=none ch=hotplug:at=1ms";
    ]

let test_fuzz_clean_config_passes () =
  Alcotest.(check bool) "no failure" true
    (F.check (cfg_of "w=tpch p=clock r=0.5 s=ssd f=none") = None)

let test_fuzz_corrupt_fails_invariants () =
  match F.check (cfg_of "w=tpch p=clock r=0.5 s=ssd f=none ch=corrupt:at=1s") with
  | Some ("invariants", _) -> ()
  | Some (oracle, detail) -> Alcotest.failf "wrong oracle %s: %s" oracle detail
  | None -> Alcotest.fail "corrupt config passed every oracle"

let test_fuzz_shrink_to_minimal () =
  let big =
    cfg_of
      "w=tpch p=clock r=0.9 s=ssd f=none \
       ch=burst:at=5ms,for=2ms;corrupt:at=1s"
  in
  (match F.check big with
  | Some ("invariants", _) -> ()
  | _ -> Alcotest.fail "seeded config must fail the invariants oracle");
  let small = F.shrink big ~failing:"invariants" in
  Alcotest.(check string) "minimal repro"
    "w=tpch p=clock r=0.5 s=ssd f=none ch=corrupt:at=1s"
    (F.config_to_string small);
  (* The minimal line reproduces deterministically. *)
  match F.check small with
  | Some ("invariants", _) -> ()
  | _ -> Alcotest.fail "shrunken config no longer fails invariants"

let () =
  Alcotest.run "chaos"
    [
      ( "grammar",
        QCheck_alcotest.to_alcotest qcheck_round_trip
        :: QCheck_alcotest.to_alcotest qcheck_canonical
        :: Alcotest.test_case "disjoint bursts accepted" `Quick
             test_accepts_disjoint_bursts
        :: List.map
             (fun (spec, want) ->
               Alcotest.test_case
                 (if spec = "" then "<empty>" else spec)
                 `Quick (rejects spec want))
             (rejection_cases @ time_range_cases) );
      ( "invariants",
        [
          Alcotest.test_case "offline free frame clean" `Quick
            test_offline_free_frame_clean;
          Alcotest.test_case "pte on offline frame" `Quick
            test_detects_pte_on_offline_frame;
          Alcotest.test_case "online count balance" `Quick
            test_detects_online_count_balance;
          Alcotest.test_case "last chaos stamped" `Quick test_last_chaos_stamped;
        ] );
      ( "machine",
        [
          Alcotest.test_case "hotplug" `Quick test_machine_hotplug;
          Alcotest.test_case "degrade" `Quick test_machine_degrade;
          Alcotest.test_case "churn" `Quick test_machine_churn;
          Alcotest.test_case "burst" `Quick test_machine_burst;
          Alcotest.test_case "corrupt detected" `Quick test_machine_corrupt_detected;
          Alcotest.test_case "chaos in trace" `Quick test_machine_chaos_traced;
          Alcotest.test_case "future chaos inert" `Quick
            test_machine_future_chaos_inert;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "config round-trip" `Quick test_fuzz_config_round_trip;
          Alcotest.test_case "config rejects" `Quick test_fuzz_config_rejects;
          Alcotest.test_case "clean config passes" `Quick
            test_fuzz_clean_config_passes;
          Alcotest.test_case "corrupt fails invariants" `Quick
            test_fuzz_corrupt_fails_invariants;
          Alcotest.test_case "shrink to minimal" `Slow test_fuzz_shrink_to_minimal;
        ] );
    ]
