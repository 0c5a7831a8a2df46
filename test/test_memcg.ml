(* Cgroup memory containment: spec parsing, memory.low protection,
   memory.high throttling, scoped OOM, PSI accounting, the proactive
   probe, and the determinism / byte-identity guarantees. *)

module M = Repro_core.Machine
module Mcg = Mem.Memcg
module R = Repro_core.Runner
module C = Workload.Chunk
module V = Obs.Vmstat

let one_page p = C.Range { start = p; len = 1 }

(* ---------------- spec parsing ---------------- *)

let test_parse_basic () =
  match
    Mcg.parse_spec
      "hot:threads=0-1,max=40%;bg:threads=2+4-5,low=15%,high=200"
  with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spec ->
    Alcotest.(check int) "two groups" 2 (List.length spec.Mcg.groups);
    let hot = List.nth spec.Mcg.groups 0 in
    Alcotest.(check string) "name" "hot" hot.Mcg.g_name;
    Alcotest.(check bool) "hot threads" true (hot.Mcg.g_threads = [ (0, 1) ]);
    Alcotest.(check bool) "hot max is 40%" true
      (match hot.Mcg.g_max with Some (Mem.Spec_syntax.Frac f) -> abs_float (f -. 0.40) < 1e-9 | _ -> false);
    Alcotest.(check bool) "hot has no low" true (hot.Mcg.g_low = None);
    let bg = List.nth spec.Mcg.groups 1 in
    Alcotest.(check bool) "bg ranges joined with +" true
      (bg.Mcg.g_threads = [ (2, 2); (4, 5) ]);
    Alcotest.(check bool) "bg high in pages" true
      (bg.Mcg.g_high = Some (Mem.Spec_syntax.Pages 200));
    Alcotest.(check bool) "no proactive" true (spec.Mcg.proactive = None)

let test_parse_reserved_groups () =
  match
    Mcg.parse_spec
      "a:threads=0,max=32;proactive:interval=50ms,threshold=0.2,step=2%;psi:interval=10ms"
  with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spec ->
    Alcotest.(check int) "one ordinary group" 1 (List.length spec.Mcg.groups);
    (match spec.Mcg.proactive with
    | None -> Alcotest.fail "proactive missing"
    | Some p ->
      Alcotest.(check int) "interval 50ms" 50_000_000 p.Mcg.p_interval_ns;
      Alcotest.(check bool) "threshold" true (abs_float (p.Mcg.p_threshold -. 0.2) < 1e-9));
    Alcotest.(check int) "psi interval" 10_000_000 spec.Mcg.psi_interval_ns

(* Errors carry 1:COL: positions, like the --chaos ones: the column of
   the segment, or of the offending value. *)
let parse_error_cases =
  [
    ("", "1:1: empty --cgroups spec");
    ("a:low=5", "1:1: cgroup a: missing threads=");
    ("a:threads=0,zug=5", "1:1: cgroup a: unknown key \"zug\"");
    ("a:threads=5-2", "1:11: threads: bad thread range \"5-2\"");
    ("a:threads=0;a:threads=1", "1:13: duplicate segment \"a\"");
    ("a:threads=0,threads=1", "1:13: duplicate key \"threads\"");
    ("root:threads=0", "1:1: cgroup name 'root' is reserved");
    ("a:threads=0;a b:threads=0", "1:13: bad cgroup name \"a b\"");
    ("a:threads=0,max=abc", "1:17: max: bad page count \"abc\"");
    ("psi:threshold=0.5", "1:1: psi: unknown key \"threshold\"");
    ("a:threads=0;psi:interval=-5ms", "1:26: interval: negative time \"-5ms\"");
    ("a:threads=0;psi:interval=0", "1:26: interval: must be positive");
    ( "a:threads=0;proactive:threshold=2",
      "1:33: threshold: bad fraction \"2\" (want 0..1)" );
    (* A tick under 1 ns, or one past max_int ns, would be a 0 ns tick:
       the PSI and probe timers would repeat at t=0 forever. *)
    ( "a:threads=0-1;psi:interval=0.0001us",
      "1:28: interval: time \"0.0001us\" is under 1ns" );
    ("a:threads=0-1;psi:interval=1e300s", "1:28: interval: time \"1e300s\" out of range");
    ( "a:threads=0-1;proactive:interval=0.0001us",
      "1:34: interval: time \"0.0001us\" is under 1ns" );
    ( "a:threads=0-1;proactive:interval=1e300s",
      "1:34: interval: time \"1e300s\" out of range" );
  ]

let test_parse_errors () =
  List.iter
    (fun (s, want) ->
      match Mcg.parse_spec s with
      | Ok spec -> Alcotest.failf "%S accepted as %S" s (Mcg.spec_to_string spec)
      | Error got -> Alcotest.(check string) s want got)
    parse_error_cases

let test_spec_round_trip () =
  let s = "hot:threads=0-1,max=40%;bg:threads=2-5,low=15%;proactive:interval=50ms,threshold=0.2,step=2%" in
  match Mcg.parse_spec s with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spec ->
    let printed = Mcg.spec_to_string spec in
    (match Mcg.parse_spec printed with
    | Error msg -> Alcotest.failf "reparse failed: %s" msg
    | Ok spec2 ->
      Alcotest.(check string) "canonical form stable" printed (Mcg.spec_to_string spec2))

let test_create_rejects_overlap () =
  let spec =
    {
      Mcg.groups =
        [
          { Mcg.g_name = "a"; g_threads = [ (0, 2) ]; g_low = None; g_high = None; g_max = None };
          { Mcg.g_name = "b"; g_threads = [ (2, 3) ]; g_low = None; g_high = None; g_max = None };
        ];
      proactive = None;
      psi_interval_ns = 10_000_000;
    }
  in
  Alcotest.check_raises "overlapping tid 2"
    (Invalid_argument "cgroup b: thread 2 already assigned")
    (fun () ->
      ignore (Mcg.create spec ~capacity_frames:64 ~nthreads:4 ~footprint_pages:64))

(* Specs built in code (fleet, the chaos report) skip the parser, so
   create checks the intervals itself. *)
let test_create_rejects_zero_intervals () =
  let base = Result.get_ok (Mcg.parse_spec "a:threads=0;proactive:interval=1ms") in
  let create spec =
    ignore (Mcg.create spec ~capacity_frames:64 ~nthreads:1 ~footprint_pages:64)
  in
  Alcotest.check_raises "psi"
    (Invalid_argument "Memcg.create: psi_interval_ns must be positive")
    (fun () -> create { base with Mcg.psi_interval_ns = 0 });
  Alcotest.check_raises "proactive"
    (Invalid_argument "Memcg.create: p_interval_ns must be positive")
    (fun () ->
      create
        { base with
          Mcg.proactive =
            Option.map (fun p -> { p with Mcg.p_interval_ns = 0 }) base.Mcg.proactive })

(* ---------------- machine-level helpers ---------------- *)

let trace_workload ?(footprint = 64) lists =
  C.Packed
    ((module Workload.Trace), Workload.Trace.of_page_lists ~footprint lists)

(* One steps row per thread (of_page_lists folds everything into a
   single thread). *)
let multi_trace ?(footprint = 64) per_thread =
  let steps =
    Array.of_list
      (List.map
         (fun lists ->
           Array.of_list
             (List.map (fun pages -> C.Chunk (C.chunk (C.Pages pages))) lists))
         per_thread)
  in
  C.Packed
    ((module Workload.Trace),
     Workload.Trace.create
       {
         Workload.Trace.steps;
         footprint;
         klass = (fun _ -> Swapdev.Compress.Numeric);
         file_backed_pages = (fun _ -> false);
       })

let config ?(capacity = 16) () =
  {
    (M.default_config ~capacity_frames:capacity ~seed:7) with
    M.readahead = 0;
    kthread_jitter_ns = 0;
  }

let group name threads ?low ?high ?max () =
  { Mcg.g_name = name; g_threads = threads; g_low = low; g_high = high; g_max = max }

let spec_of ?proactive groups =
  { Mcg.groups; proactive; psi_interval_ns = 10_000_000 }

let summary_of r =
  match r.M.memcg with
  | Some s -> s
  | None -> Alcotest.fail "result carries no memcg summary"

let report_of r name =
  let s = summary_of r in
  match
    List.find_opt (fun g -> g.Mcg.r_name = name) s.Mcg.s_groups
  with
  | Some g -> g
  | None -> Alcotest.failf "no cgroup %S in summary" name

(* ---------------- memory.low protection ---------------- *)

let test_low_protects () =
  (* Thread 0 owns pages 0-7 under a full memory.low; thread 1 thrashes
     40 pages through the remaining 16 frames.  Reclaim must spare the
     protected 8. *)
  let protected_ = Array.init 8 (fun i -> i) in
  let noisy = Array.init 40 (fun i -> 8 + i) in
  let per_thread =
    [ [ protected_; protected_; protected_ ]; [ noisy; noisy; noisy ] ]
  in
  let spec =
    spec_of
      [ group "quiet" [ (0, 0) ] ~low:(Mem.Spec_syntax.Pages 8) ();
        group "noisy" [ (1, 1) ] () ]
  in
  let cfg = { (config ~capacity:24 ()) with M.cgroups = Some spec;
              audit_every_ns = 1_000_000 } in
  let r =
    M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(multi_trace ~footprint:48 per_thread)
  in
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations);
  Alcotest.(check int) "protected pages all resident" 8
    (report_of r "quiet").Mcg.r_usage;
  Alcotest.(check bool) "noisy group did the faulting" true
    (r.M.major_faults > 0)

(* ---------------- memory.high throttling ---------------- *)

(* Pin pages with permanent write failures: targeted reclaim then cannot
   push the group back under high, so every further charge stalls the
   thread with the exponential backoff. *)
let throttled_run () =
  let pages = Array.init 32 (fun i -> i) in
  let spec = spec_of [ group "app" [ (0, 0) ] ~high:(Mem.Spec_syntax.Pages 8) () ] in
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let cfg =
    { (config ~capacity:64 ()) with
      M.cgroups = Some spec; fault_plan = plan; audit_every_ns = 1_000_000;
      obs = { Obs.off with trace = true; sample_every_ns = 0 } }
  in
  M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
    ~workload:(trace_workload ~footprint:32 [ Array.concat [ pages; pages ] ])

let test_high_throttles () =
  let r = throttled_run () in
  let app = report_of r "app" in
  Alcotest.(check bool) "throttle episodes" true (app.Mcg.r_throttles > 0);
  Alcotest.(check bool) "throttled simulated time" true (app.Mcg.r_throttled_ns > 0);
  Alcotest.(check bool) "usage above high (pinned pages)" true
    (app.Mcg.r_usage > 8);
  Alcotest.(check int) "no OOM without memory.max" 0 app.Mcg.r_oom_kills;
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations);
  (* Throttle stalls are memory stalls: PSI must have seen them. *)
  Alcotest.(check bool) "psi some covers the stalls" true
    (app.Mcg.r_psi_some_ns >= app.Mcg.r_throttled_ns);
  (* The trace carries matching events. *)
  match r.M.trace with
  | None -> Alcotest.fail "tracing was on"
  | Some cap ->
    let throttle_events =
      Array.to_list cap.Obs.events
      |> List.filter (fun (_, e) -> match e with Obs.Throttle _ -> true | _ -> false)
    in
    Alcotest.(check int) "one Throttle event per episode"
      app.Mcg.r_throttles (List.length throttle_events)

let test_throttle_deterministic () =
  let r1 = throttled_run () and r2 = throttled_run () in
  Alcotest.(check int) "same runtime" r1.M.runtime_ns r2.M.runtime_ns;
  Alcotest.(check bool) "same memcg summary" true
    (summary_of r1 = summary_of r2)

(* ---------------- scoped OOM ---------------- *)

(* The hot group exceeds its memory.max while writebacks pin its pages
   (partial failure keeps some swap-outs succeeding, so the victim owns
   live swap slots at kill time — the PR-1 leak this PR fixes).  The
   kill must stay inside the hot group and release every slot. *)
let scoped_oom_run () =
  let hot_pages = Array.init 40 (fun i -> i) in
  let bg_pages = Array.init 12 (fun i -> 40 + i) in
  let per_thread =
    [ [ hot_pages; hot_pages; hot_pages ]; [ bg_pages; bg_pages ] ]
  in
  let spec =
    spec_of
      [ group "hot" [ (0, 0) ] ~max:(Mem.Spec_syntax.Pages 16) ();
        group "bg" [ (1, 1) ] () ]
  in
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 0.6; permanent_fraction = 1.0 }
  in
  let cfg =
    { (config ~capacity:40 ()) with
      M.cgroups = Some spec; fault_plan = plan; audit_every_ns = 1_000_000;
      (* no retry budget: an injected error pins the page on the spot,
         so ~60% of evictions pin and the rest produce real swap slots *)
      io_max_retries = 0 }
  in
  M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
    ~workload:(multi_trace ~footprint:52 per_thread)

let test_scoped_oom_confined () =
  let r = scoped_oom_run () in
  Alcotest.(check bool) "oom fired" true (M.count r V.oom_kill >= 1);
  Alcotest.(check bool) "hot group took the kills" true
    ((report_of r "hot").Mcg.r_oom_kills >= 1);
  Alcotest.(check int) "bg group untouched" 0 (report_of r "bg").Mcg.r_oom_kills;
  Alcotest.(check int) "root untouched" 0 (report_of r "root").Mcg.r_oom_kills;
  Alcotest.(check bool) "bg thread ran to completion" true
    (r.M.per_thread_finish.(1) >= 0);
  Alcotest.(check bool) "hot group emptied by teardown" true
    ((report_of r "hot").Mcg.r_usage = 0)

let test_oom_releases_swap_slots () =
  (* The per-ms audit recounts swap slots (count-swap-slots) and checks
     page ownership (owner-killed) right after the kill: a victim slot
     leak or surviving rmap entry fails the run. *)
  let r = scoped_oom_run () in
  Alcotest.(check bool) "victim had swapped pages" true
    (M.count r V.pswpout > 0);
  Alcotest.(check int) "no leaks across audits" 0
    (M.count r V.invariant_violations);
  Alcotest.(check bool) "teardown covered swapped pages" true
    (M.count r V.oom_discarded_pages > 0)

let test_machine_wide_oom_releases_slots () =
  (* Same leak regression without cgroups: the machine-wide killer's
     teardown must release the victim's slots too.  High write-error
     probability so pins outrun remapped retries and exhaust physical
     memory mid-run, after some writebacks (hence swap slots) landed. *)
  let big = Array.init 64 (fun i -> i) in
  let small = Array.init 8 (fun i -> 64 + i) in
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 0.6; permanent_fraction = 1.0 }
  in
  let cfg =
    { (config ~capacity:20 ()) with M.fault_plan = plan;
      audit_every_ns = 1_000_000; io_max_retries = 0 }
  in
  let r =
    M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:
        (multi_trace ~footprint:72
           [ [ big; big; big; big; big ]; [ small; small; small ] ])
  in
  Alcotest.(check bool) "oom fired" true (M.count r V.oom_kill >= 1);
  Alcotest.(check bool) "swap was in use" true (M.count r V.pswpout > 0);
  Alcotest.(check int) "no slot leaks across audits" 0
    (M.count r V.invariant_violations)

(* ---------------- PSI ---------------- *)

(* ---------------- per-tenant latencies ---------------- *)

let test_latencies_match_machine () =
  (* One group holds both threads, so it sees every request the machine
     records.  1500 reads and 1500 writes per thread over 64 pages in 16
     frames: both of the group's buffers grow past their first 1024
     slots, and faults spread the latencies. *)
  let requests tid =
    Array.init 3000 (fun i ->
        let page = ((i * 7) + (tid * 13)) mod 64 in
        if i mod 2 = 0 then C.Chunk (C.chunk ~latency_class:C.read_class (one_page page))
        else
          C.Chunk (C.chunk ~write:true ~latency_class:C.write_class (one_page page)))
  in
  let workload =
    C.Packed
      ((module Workload.Trace),
       Workload.Trace.create
         {
           Workload.Trace.steps = [| requests 0; requests 1 |];
           footprint = 64;
           klass = (fun _ -> Swapdev.Compress.Numeric);
           file_backed_pages = (fun _ -> false);
         })
  in
  let cfg = { (config ()) with M.cgroups = Some (spec_of [ group "all" [ (0, 1) ] () ]) } in
  let r = M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock) ~workload in
  let all = report_of r "all" in
  Alcotest.(check int) "every read recorded" 3000 (Array.length r.M.read_latencies);
  Alcotest.(check (array int)) "same reads" r.M.read_latencies
    (Structures.Latencies.to_array all.Mcg.r_read_latencies);
  Alcotest.(check (array int)) "same writes" r.M.write_latencies
    (Structures.Latencies.to_array all.Mcg.r_write_latencies);
  Alcotest.(check bool) "faults spread the latencies" true (r.M.major_faults > 0)

let test_psi_accounting () =
  let pages = Array.init 48 (fun i -> i) in
  let spec = spec_of [ group "app" [ (0, 0) ] () ] in
  let cfg = { (config ~capacity:16 ()) with M.cgroups = Some spec } in
  let r =
    M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(trace_workload ~footprint:48 [ Array.concat [ pages; pages; pages ] ])
  in
  let s = summary_of r in
  let app = report_of r "app" in
  Alcotest.(check bool) "thrash stalled the thread" true (app.Mcg.r_psi_some_ns > 0);
  Alcotest.(check bool) "full <= some" true
    (app.Mcg.r_psi_full_ns <= app.Mcg.r_psi_some_ns);
  Alcotest.(check bool) "some bounded by runtime" true
    (app.Mcg.r_psi_some_ns <= r.M.runtime_ns);
  (* One thread in the group: every some-stall is a full-stall. *)
  Alcotest.(check int) "single thread: full = some"
    app.Mcg.r_psi_some_ns app.Mcg.r_psi_full_ns;
  Alcotest.(check bool) "machine-wide tracker agrees" true
    (s.Mcg.s_some_ns > 0 && s.Mcg.s_some_ns <= r.M.runtime_ns)

(* ---------------- proactive probe ---------------- *)

let psi_events r name =
  match r.M.trace with
  | None -> []
  | Some cap ->
    Array.to_list cap.Obs.events
    |> List.filter_map (fun (_, e) ->
           match e with
           | Obs.Psi { cg; some_ns; limit; _ } when cg = name ->
             Some (some_ns, limit)
           | _ -> None)

let test_proactive_tightens () =
  (* Threshold 1.0 can never be exceeded, so the probe tightens every
     tick: effective limits must be non-increasing, and squeezing the
     working set must surface PSI pressure that was absent before. *)
  let pages = Array.init 24 (fun i -> i) in
  let many = Array.concat (List.init 200 (fun _ -> pages)) in
  let spec =
    { (spec_of [ group "app" [ (0, 0) ] () ]) with
      Mcg.proactive =
        Some { Mcg.p_interval_ns = 100_000; p_threshold = 1.0;
               p_step = Mem.Spec_syntax.Pages 1 };
      psi_interval_ns = 50_000 }
  in
  let cfg =
    { (config ~capacity:64 ()) with
      M.swap = M.Zram;
      cgroups = Some spec;
      obs = { Obs.off with trace = true; sample_every_ns = 0 } }
  in
  let r =
    M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(trace_workload ~footprint:24 [ many ])
  in
  let ticks = psi_events r "app" in
  Alcotest.(check bool) "probe ticked" true (List.length ticks > 4);
  let limits = List.filter_map (fun (_, l) -> if l >= 0 then Some l else None) ticks in
  Alcotest.(check bool) "probe engaged" true (limits <> []);
  (* Not strictly monotone: a fully-stalled window backs the limit off
     by 2*step before tightening resumes.  But the squeeze must land
     and hold below the 24-page working set (probe floor is 16). *)
  Alcotest.(check bool) "limit squeezed below the working set" true
    (List.fold_left min max_int limits < 24);
  Alcotest.(check bool) "net tightening over the run" true
    (match (limits, List.rev limits) with
    | first :: _, last :: _ -> last <= first
    | _ -> false);
  (* PSI some rises as the probe tightens: the later half of the run
     carries more stall time than the earlier half. *)
  let somes = List.map fst ticks in
  let n = List.length somes in
  let first = List.filteri (fun i _ -> i < n / 2) somes in
  let second = List.filteri (fun i _ -> i >= n / 2) somes in
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check bool) "pressure rises as the probe tightens" true
    (sum second > sum first)

(* ---------------- jobs=1 vs jobs=4 byte-identity ---------------- *)

let fast_profile = { R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_parallel_identical () =
  let spec =
    match Mcg.parse_spec
            "app:threads=0-1,high=20%;bg:threads=2-3,low=10%;proactive:interval=100ms,threshold=0.3,step=1%"
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "spec: %s" msg
  in
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 0.3; permanent_fraction = 0.5 }
  in
  let obs = { Obs.off with trace = true; sample_every_ns = 100_000_000 } in
  let run jobs =
    let ctx =
      R.make_ctx ~profile:fast_profile ~fault_plan:plan ~jobs ~obs ~cgroups:spec ()
    in
    let results =
      R.run_cell ctx ~workload:(R.Ycsb Workload.Ycsb.A)
        ~policy:Policy.Registry.Clock ~ratio:0.7 ~swap:R.Ssd
    in
    let trace = Filename.temp_file "memcg" ".jsonl" in
    let samples = Filename.temp_file "memcg" ".csv" in
    ignore (R.write_trace ctx ~path:trace);
    ignore (R.write_samples ctx ~path:samples);
    let t = read_file trace and s = read_file samples in
    Sys.remove trace;
    Sys.remove samples;
    (results, t, s)
  in
  let r1, t1, s1 = run 1 in
  let r4, t4, s4 = run 4 in
  List.iter2
    (fun (a : M.stored) (b : M.stored) ->
      Alcotest.(check int) "same runtime" a.M.runtime_ns b.M.runtime_ns;
      Alcotest.(check bool) "same memcg summary" true
        (summary_of a = summary_of b))
    r1 r4;
  Alcotest.(check bool) "throttling actually exercised" true
    (List.exists (fun r -> (report_of r "app").Mcg.r_throttles > 0) r1);
  Alcotest.(check string) "trace bytes identical" t1 t4;
  Alcotest.(check string) "PSI sample bytes identical" s1 s4;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "samples carry psi series" true (contains s1 "psi.some_ns")

(* ---------------- summary round-trip ---------------- *)

let test_summary_round_trip () =
  let module J = Repro_core.Journal in
  let r = throttled_run () in
  let stored =
    {
      r with
      M.trace = None;
      read_latencies = Structures.Latencies.of_sorted r.M.read_latencies;
      write_latencies = Structures.Latencies.of_sorted r.M.write_latencies;
    }
  in
  let record = { J.key = "k"; status = J.Trial_ok; reason = ""; result = Some stored } in
  match J.record_of_line (J.record_to_line record) with
  | Ok { J.result = Some got; _ } ->
    Alcotest.(check bool) "summary survives the journal" true
      (got.M.memcg = r.M.memcg)
  | Ok _ -> Alcotest.fail "lost the result"
  | Error msg -> Alcotest.failf "decode failed: %s" msg

(* ---------------- multi-tenant fleet containment ---------------- *)

let small_ycsb ~seed ~zipf ~requests =
  let config =
    { Workload.Ycsb.default_config with
      Workload.Ycsb.items = 1_600; requests; threads = 2; zipf_exponent = zipf }
  in
  C.Packed
    ((module Workload.Ycsb),
     Workload.Ycsb.create ~config ~variant:Workload.Ycsb.A
       ~rng:(Engine.Rng.create seed) ())

let test_fleet_confines_runaway () =
  (* Two tenants under Fleet.default_spec: the hot one (tenant 0,
     threads 0-1) runs away against its 40% memory.max while pinned
     pages defeat its targeted reclaim; the neighbour must finish
     unharmed, with its latency tail intact. *)
  let m =
    Workload.Multi.create
      [ small_ycsb ~seed:11 ~zipf:1.1 ~requests:12_000;
        small_ycsb ~seed:23 ~zipf:0.8 ~requests:6_000 ]
  in
  let spec = Repro_core.Fleet.default_spec ~tenants:2 ~hot:0 in
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 0.7; permanent_fraction = 1.0 }
  in
  let cfg =
    { (config ~capacity:260 ()) with
      M.cgroups = Some spec; fault_plan = plan; audit_every_ns = 1_000_000;
      barrier_groups = Some (Workload.Multi.barrier_groups m) }
  in
  let r =
    M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(C.Packed ((module Workload.Multi), m))
  in
  let hot = report_of r "hot" and bg = report_of r "tenant1" in
  Alcotest.(check bool) "hot tenant OOM-killed" true (hot.Mcg.r_oom_kills >= 1);
  Alcotest.(check int) "neighbour spared" 0 bg.Mcg.r_oom_kills;
  Alcotest.(check bool) "neighbour threads finished" true
    (r.M.per_thread_finish.(2) >= 0 && r.M.per_thread_finish.(3) >= 0);
  Alcotest.(check bool) "neighbour latencies recorded" true
    (Structures.Latencies.count bg.Mcg.r_read_latencies > 0);
  Alcotest.(check bool) "neighbour p99 bounded by device latency" true
    (Stats.Percentile.quantile_runs bg.Mcg.r_read_latencies 0.99 < 1e9);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_fleet_workload_shape () =
  let ctx = R.make_ctx ~profile:fast_profile () in
  let kind = R.Fleet { fl_tenants = 3; fl_hot = 1 } in
  Alcotest.(check string) "kind name" "fleet3-h1" (R.workload_kind_name kind);
  let w = R.make_workload ctx kind ~trial:0 in
  Alcotest.(check int) "two threads per tenant" 6 (C.packed_threads w);
  Alcotest.(check bool) "footprint covers all tenants" true
    (C.packed_footprint w > 3 * 3_000)

let () =
  Alcotest.run "memcg"
    [
      ( "spec",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "parse reserved groups" `Quick test_parse_reserved_groups;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "round trip" `Quick test_spec_round_trip;
          Alcotest.test_case "create rejects overlap" `Quick test_create_rejects_overlap;
          Alcotest.test_case "create rejects zero intervals" `Quick
            test_create_rejects_zero_intervals;
        ] );
      ( "containment",
        [
          Alcotest.test_case "memory.low protects" `Quick test_low_protects;
          Alcotest.test_case "memory.high throttles" `Quick test_high_throttles;
          Alcotest.test_case "throttling deterministic" `Quick test_throttle_deterministic;
          Alcotest.test_case "scoped oom confined" `Quick test_scoped_oom_confined;
          Alcotest.test_case "oom releases swap slots" `Quick test_oom_releases_swap_slots;
          Alcotest.test_case "machine-wide oom releases slots" `Quick
            test_machine_wide_oom_releases_slots;
        ] );
      ( "latencies",
        [ Alcotest.test_case "one group = machine" `Quick test_latencies_match_machine ] );
      ( "psi",
        [
          Alcotest.test_case "psi accounting" `Quick test_psi_accounting;
          Alcotest.test_case "proactive probe tightens" `Quick test_proactive_tightens;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_parallel_identical;
          Alcotest.test_case "summary round trip" `Quick test_summary_round_trip;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "runaway confined" `Slow test_fleet_confines_runaway;
          Alcotest.test_case "workload shape" `Quick test_fleet_workload_shape;
        ] );
    ]
