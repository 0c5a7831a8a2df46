module O = Obs
module R = Repro_core.Runner
module M = Repro_core.Machine
module V = Obs.Vmstat

(* ------------------------------------------------------------------ *)
(* Sink basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink () =
  Alcotest.(check bool) "disabled" false (O.enabled O.disabled);
  Alcotest.(check bool) "not tracing" false (O.tracing O.disabled);
  Alcotest.(check int) "no cadence" 0 (O.sample_every_ns O.disabled);
  O.emit O.disabled ~t_ns:1 (O.Demote { pfn = 3 });
  O.push_sample O.disabled ~t_ns:1 [ ("x", 1.0) ];
  Alcotest.(check bool) "no capture" true (O.capture O.disabled = None);
  Alcotest.(check bool) "create off = disabled" true (O.capture (O.create O.off) = None)

let test_enabled_sink_records () =
  let s = O.create { O.off with trace = true; sample_every_ns = 10 } in
  O.emit s ~t_ns:5 (O.Evict { vpn = 42; dirty = true });
  O.emit s ~t_ns:9
    (O.Reclaim { want = 32; freed = 30; scanned = 64; latency_ns = 1234 });
  O.push_sample s ~t_ns:10 [ ("free_frames", 7.0) ];
  match O.capture s with
  | None -> Alcotest.fail "expected a capture"
  | Some c ->
    Alcotest.(check int) "two events" 2 (Array.length c.O.events);
    Alcotest.(check int) "one sample" 1 (Array.length c.O.samples);
    let t0, e0 = c.O.events.(0) in
    Alcotest.(check int) "t_ns preserved" 5 t0;
    Alcotest.(check string) "kind" "evict" (O.kind_name e0);
    (* Reclaim events feed the latency histogram. *)
    Alcotest.(check int) "hist count" 1 (Stats.Histogram.count c.O.reclaim_hist);
    Alcotest.(check (float 1e-9)) "hist max" 1234.0
      (Stats.Histogram.max_seen c.O.reclaim_hist)

let test_sampling_only_config () =
  (* sample_every_ns > 0 with trace = false: samples kept, events dropped. *)
  let s = O.create { O.off with trace = false; sample_every_ns = 100 } in
  Alcotest.(check bool) "enabled" true (O.enabled s);
  Alcotest.(check bool) "not tracing" false (O.tracing s);
  O.emit s ~t_ns:1 (O.Demote { pfn = 1 });
  O.push_sample s ~t_ns:100 [ ("resident", 3.0) ];
  match O.capture s with
  | None -> Alcotest.fail "expected a capture"
  | Some c ->
    Alcotest.(check int) "no events" 0 (Array.length c.O.events);
    Alcotest.(check int) "one sample" 1 (Array.length c.O.samples)

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let all_events =
  [
    O.Evict { vpn = 17; dirty = false };
    O.Promote { pfn = 99; reason = O.Aging };
    O.Promote { pfn = 3; reason = O.Second_chance };
    O.Demote { pfn = 21 };
    O.Aging_pass { pass = 4; max_seq = 12; min_seq = 9 };
    O.Reclaim { want = 32; freed = 31; scanned = 77; latency_ns = 420_000 };
    O.Swap_read { slot = 5; latency_ns = 90_000; retries = 1; failed = false };
    O.Swap_write
      { slot = -1; latency_ns = 10; retries = 3; failed = true; remapped = true };
    O.Oom_kill { tid = 2; discarded = 511 };
  ]

let cell =
  [
    ("workload", O.Str "tpch");
    ("policy", O.Str "mglru");
    ("ratio", O.Float 0.5);
    ("swap", O.Str "ssd");
    ("trial", O.Int 0);
  ]

let test_jsonl_round_trip () =
  List.iteri
    (fun i ev ->
      let line = O.jsonl_line ~cell ~t_ns:(1000 + i) ev in
      match O.parse_line line with
      | Error msg -> Alcotest.failf "parse %S: %s" line msg
      | Ok fields ->
        Alcotest.(check (option string))
          "workload survives" (Some "tpch")
          (O.field_string fields "workload");
        Alcotest.(check (option int)) "t_ns survives" (Some (1000 + i))
          (O.field_int fields "t_ns");
        Alcotest.(check (option string))
          "kind survives" (Some (O.kind_name ev))
          (O.field_string fields "kind");
        (* Every payload field must survive the round trip. *)
        List.iter
          (fun (k, v) ->
            match (v, O.field fields k) with
            | O.Int n, Some got ->
              Alcotest.(check (option int))
                (Printf.sprintf "field %s" k)
                (Some n)
                (match got with
                | O.Int m -> Some m
                | O.Float f when Float.is_integer f -> Some (int_of_float f)
                | _ -> None)
            | O.Bool b, Some (O.Bool b') ->
              Alcotest.(check bool) (Printf.sprintf "field %s" k) b b'
            | O.Str s, Some (O.Str s') ->
              Alcotest.(check string) (Printf.sprintf "field %s" k) s s'
            | O.Float f, Some (O.Float f') ->
              Alcotest.(check (float 1e-9)) (Printf.sprintf "field %s" k) f f'
            | _, got ->
              Alcotest.failf "field %s: unexpected shape (%s)" k
                (match got with None -> "missing" | Some _ -> "wrong type"))
          (O.event_fields ev))
    all_events

let test_jsonl_string_escapes () =
  let cell = [ ("workload", O.Str "we\"ird\\name\nwith\ttabs") ] in
  let line = O.jsonl_line ~cell ~t_ns:1 (O.Demote { pfn = 0 }) in
  match O.parse_line line with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok fields ->
    Alcotest.(check (option string))
      "escapes round-trip"
      (Some "we\"ird\\name\nwith\ttabs")
      (O.field_string fields "workload")

let test_parse_rejects_malformed () =
  let bad =
    [
      ""; "{"; "nonsense"; "{\"a\":}"; "{\"a\":1,}"; "{\"a\" 1}"; "[1,2]";
      (* \u escapes must be exactly four hex digits — int_of_string
         leniency ("0x00_1") must not leak into the parser. *)
      "{\"a\":\"\\u00_1\"}"; "{\"a\":\"\\u12\"}"; "{\"a\":\"\\uzzzz\"}";
      "{\"a\":\"\\u 123\"}"; "{\"a\":\"\\x41\"}";
    ]
  in
  List.iter
    (fun line ->
      match O.parse_line line with
      | Ok _ -> Alcotest.failf "accepted malformed %S" line
      | Error _ -> ())
    bad

(* Every byte string — control characters, quotes, backslashes, broken
   escape lookalikes — must survive json_object + parse_line unchanged. *)
let qcheck_string_escape_round_trip =
  QCheck.Test.make ~count:1000 ~name:"string escaping round-trips"
    QCheck.(string_gen Gen.char)
    (fun s ->
      let line = O.json_object [ ("k", O.Str s) ] in
      match O.parse_line line with
      | Ok fields -> O.field_string fields "k" = Some s
      | Error _ -> false)

let adversarial_strings =
  [
    "\\u0041"; "\\"; "\\\\"; "\"\""; "\n\r\t"; "\x00\x01\x1f";
    "trailing backslash \\"; "\\u00"; "a\"b\\c\nd"; String.make 3 '\x07';
  ]

let test_adversarial_escapes_round_trip () =
  List.iter
    (fun s ->
      let line = O.json_object [ ("k", O.Str s); ("n", O.Int 1) ] in
      match O.parse_line line with
      | Error msg -> Alcotest.failf "parse %S: %s" line msg
      | Ok fields ->
        Alcotest.(check (option string)) "value survives" (Some s)
          (O.field_string fields "k");
        Alcotest.(check (option int)) "trailing field intact" (Some 1)
          (O.field_int fields "n"))
    adversarial_strings

(* ------------------------------------------------------------------ *)
(* Machine-level behaviour                                             *)
(* ------------------------------------------------------------------ *)

let fast_profile = { R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }

let tpch_exp =
  {
    R.workload = R.Tpch;
    policy = Policy.Registry.Mglru_default;
    ratio = 0.5;
    swap = R.Ssd;
    trial = 0;
  }

let test_tracing_does_not_perturb () =
  (* The same experiment with and without telemetry must agree on every
     aggregate counter: sinks observe, they never steer. *)
  let plain = R.run_exp (R.make_ctx ~profile:fast_profile ()) tpch_exp in
  let traced_ctx =
    R.make_ctx ~profile:fast_profile
      ~obs:{ O.off with trace = true; sample_every_ns = 10_000_000 }
      ()
  in
  let traced = R.run_exp traced_ctx tpch_exp in
  Alcotest.(check bool) "plain has no capture" true
    (plain.Repro_core.Machine.trace = None);
  Alcotest.(check bool) "traced has a capture" true
    (traced.Repro_core.Machine.trace <> None);
  Alcotest.(check int) "runtime identical"
    plain.Repro_core.Machine.runtime_ns traced.Repro_core.Machine.runtime_ns;
  Alcotest.(check int) "major faults identical"
    plain.Repro_core.Machine.major_faults
    traced.Repro_core.Machine.major_faults;
  Alcotest.(check int) "swap outs identical"
    (M.count plain V.pswpout) (M.count traced V.pswpout);
  Alcotest.(check int) "direct reclaims identical"
    (M.count plain V.direct_reclaims)
    (M.count traced V.direct_reclaims)

let test_capture_contents () =
  let ctx =
    R.make_ctx ~profile:fast_profile
      ~obs:{ O.off with trace = true; sample_every_ns = 10_000_000 }
      ()
  in
  let r = R.run_exp ctx tpch_exp in
  match r.Repro_core.Machine.trace with
  | None -> Alcotest.fail "expected a capture"
  | Some c ->
    Alcotest.(check bool) "events recorded" true (Array.length c.O.events > 0);
    Alcotest.(check bool) "samples recorded" true (Array.length c.O.samples > 0);
    (* Events are kept in emission order; stamps (episode/submission
       starts, so not globally sorted) must stay within the run. *)
    Array.iter
      (fun (t, _) ->
        Alcotest.(check bool) "stamp within run" true
          (t >= 0 && t <= r.Repro_core.Machine.runtime_ns))
      c.O.events;
    (* Samples land exactly on the configured cadence. *)
    Array.iter
      (fun (t, metrics) ->
        Alcotest.(check int) "on cadence" 0 (t mod 10_000_000);
        Alcotest.(check bool) "has free_frames" true
          (List.mem_assoc "free_frames" metrics);
        Alcotest.(check bool) "has policy gauges" true
          (List.exists
             (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "policy.")
             metrics))
      c.O.samples;
    (* MG-LRU under memory pressure must show the reclaim pipeline. *)
    let count k =
      Array.fold_left
        (fun acc (_, e) -> if O.kind_name e = k then acc + 1 else acc)
        0 c.O.events
    in
    Alcotest.(check bool) "evictions traced" true (count "evict" > 0);
    Alcotest.(check bool) "reclaims traced" true (count "reclaim" > 0);
    Alcotest.(check bool) "aging passes traced" true (count "aging_pass" > 0);
    Alcotest.(check bool) "swap writes traced" true (count "swap_write" > 0);
    Alcotest.(check int) "hist mirrors reclaim events" (count "reclaim")
      (Stats.Histogram.count c.O.reclaim_hist)

(* ------------------------------------------------------------------ *)
(* Fault layer x trace layer: degraded trials still produce complete,  *)
(* counter-consistent telemetry                                        *)
(* ------------------------------------------------------------------ *)


let traced_fault_run ~plan =
  let lists =
    [ Array.init 64 (fun i -> i); Array.init 64 (fun i -> (i * 7) mod 64);
      Array.init 64 (fun i -> i) ]
  in
  let w = Workload.Trace.of_page_lists ~footprint:64 lists in
  let cfg =
    {
      (M.default_config ~capacity_frames:16 ~seed:7) with
      M.fault_plan = plan;
      kthread_jitter_ns = 0;
      obs = { O.off with trace = true; sample_every_ns = 0 };
    }
  in
  M.run cfg
    ~policy:(Policy.Registry.create Policy.Registry.Clock)
    ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))

let swap_event_counters events =
  (* (sum of per-op retries, failed reads, failed writes, oom kills) *)
  Array.fold_left
    (fun (retries, fr, fw, oom) (_, e) ->
      match e with
      | O.Swap_read { retries = r; failed; _ } ->
        (retries + r, (if failed then fr + 1 else fr), fw, oom)
      | O.Swap_write { retries = r; failed; _ } ->
        (retries + r, fr, (if failed then fw + 1 else fw), oom)
      | O.Oom_kill _ -> (retries, fr, fw, oom + 1)
      | _ -> (retries, fr, fw, oom))
    (0, 0, 0, 0) events

let test_oom_killed_trial_still_traced () =
  (* Nothing can ever be written back, so reclaim pins pages until the
     OOM killer fires — and the sink must still hold the whole story. *)
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let r = traced_fault_run ~plan in
  Alcotest.(check bool) "oom killer fired" true (M.count r V.oom_kill >= 1);
  Alcotest.(check bool) "degraded run completed" true
    (Array.for_all (fun f -> f >= 0) r.M.per_thread_finish);
  match r.M.trace with
  | None -> Alcotest.fail "OOM-killed trial lost its capture"
  | Some c ->
    let _, _, failed_writes, oom_events = swap_event_counters c.O.events in
    Alcotest.(check int) "every oom kill traced"
      (M.count r V.oom_kill) oom_events;
    Alcotest.(check bool) "writebacks failed" true
      (M.count r V.writeback_failures > 0);
    Alcotest.(check int) "failed-write events match counter"
      (M.count r V.writeback_failures) failed_writes

let test_fault_counters_match_trace () =
  (* Under the heavy preset, the result's aggregate I/O counters must
     equal what the per-event trace adds up to: the two layers observe
     one stream of truth. *)
  let r = traced_fault_run ~plan:Swapdev.Faulty_device.heavy in
  Alcotest.(check bool) "faults injected" true
    (M.count r V.injected_transient + M.count r V.injected_permanent > 0);
  match r.M.trace with
  | None -> Alcotest.fail "expected a capture"
  | Some c ->
    let retries, failed_reads, failed_writes, _ =
      swap_event_counters c.O.events
    in
    Alcotest.(check bool) "retries happened" true (M.count r V.io_retries > 0);
    Alcotest.(check int) "retry sum matches counter"
      (M.count r V.io_retries) retries;
    Alcotest.(check int) "poisoned reads match failed read events"
      (M.count r V.poisoned_reads) failed_reads;
    Alcotest.(check int) "writeback failures match failed write events"
      (M.count r V.writeback_failures) failed_writes

(* ------------------------------------------------------------------ *)
(* Runner-level determinism: --jobs N traces byte-identical to serial  *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trace_everything jobs =
  let ctx =
    R.make_ctx
      ~profile:{ R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ~jobs
      ~obs:{ O.off with trace = true; sample_every_ns = 25_000_000 }
      ()
  in
  let exps =
    List.concat_map
      (fun policy ->
        R.cell_exps ctx ~workload:R.Tpch ~policy ~ratio:0.5 ~swap:R.Ssd)
      [ Policy.Registry.Clock; Policy.Registry.Mglru_default ]
  in
  R.prefetch ctx exps;
  let dir = Filename.temp_file "obs_test" "" in
  Sys.remove dir;
  let trace = dir ^ ".jsonl" and samples = dir ^ ".csv" in
  let n_ev = R.write_trace ctx ~path:trace in
  let n_rows = R.write_samples ctx ~path:samples in
  let out = (read_file trace, read_file samples, n_ev, n_rows) in
  Sys.remove trace;
  Sys.remove samples;
  out

let test_parallel_trace_deterministic () =
  let t1, s1, ev1, rows1 = trace_everything 1 in
  let t4, s4, ev4, rows4 = trace_everything 4 in
  Alcotest.(check bool) "events recorded" true (ev1 > 0);
  Alcotest.(check bool) "samples recorded" true (rows1 > 0);
  Alcotest.(check int) "event counts equal" ev1 ev4;
  Alcotest.(check int) "row counts equal" rows1 rows4;
  Alcotest.(check bool) "trace byte-identical" true (String.equal t1 t4);
  Alcotest.(check bool) "samples byte-identical" true (String.equal s1 s4)

let test_merged_reclaim_hists () =
  let ctx =
    R.make_ctx ~profile:{ R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ~obs:{ O.off with trace = true; sample_every_ns = 0 }
      ()
  in
  let exps =
    R.cell_exps ctx ~workload:R.Tpch ~policy:Policy.Registry.Mglru_default
      ~ratio:0.5 ~swap:R.Ssd
  in
  R.prefetch ctx exps;
  match R.merged_reclaim_hists ctx with
  | [ (name, h) ] ->
    Alcotest.(check string) "policy name" "mglru" name;
    let per_trial =
      List.map
        (fun e ->
          match (R.run_exp ctx e).Repro_core.Machine.trace with
          | Some c -> Stats.Histogram.count c.O.reclaim_hist
          | None -> 0)
        exps
    in
    Alcotest.(check int) "merge sums trials"
      (List.fold_left ( + ) 0 per_trial)
      (Stats.Histogram.count h)
  | l -> Alcotest.failf "expected one policy, got %d" (List.length l)

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "disabled" `Quick test_disabled_sink;
          Alcotest.test_case "records" `Quick test_enabled_sink_records;
          Alcotest.test_case "sampling only" `Quick test_sampling_only_config;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "string escapes" `Quick test_jsonl_string_escapes;
          Alcotest.test_case "rejects malformed" `Quick test_parse_rejects_malformed;
          QCheck_alcotest.to_alcotest qcheck_string_escape_round_trip;
          Alcotest.test_case "adversarial escapes" `Quick
            test_adversarial_escapes_round_trip;
        ] );
      ( "machine",
        [
          Alcotest.test_case "no perturbation" `Quick test_tracing_does_not_perturb;
          Alcotest.test_case "capture contents" `Quick test_capture_contents;
          Alcotest.test_case "oom-killed trial still traced" `Quick
            test_oom_killed_trial_still_traced;
          Alcotest.test_case "fault counters match trace" `Quick
            test_fault_counters_match_trace;
        ] );
      ( "runner",
        [
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_trace_deterministic;
          Alcotest.test_case "merged histograms" `Quick test_merged_reclaim_hists;
        ] );
    ]
