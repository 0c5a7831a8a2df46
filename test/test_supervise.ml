(* Supervised execution at the runner level: cooperative cancellation,
   per-trial deadlines, failure isolation across a cell, journaled
   outcomes and journal warm-starts. *)

module R = Repro_core.Runner
module J = Repro_core.Journal
module M = Repro_core.Machine
module C = Engine.Cancel

let fast_profile = { R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }

let fingerprint = R.fingerprint (R.make_ctx ~profile:fast_profile ())

let exp_of policy =
  { R.workload = R.Tpch; policy; ratio = 0.5; swap = R.Ssd; trial = 0 }

(* ------------------------------------------------------------------ *)
(* Cancellation tokens                                                 *)
(* ------------------------------------------------------------------ *)

let test_cancel_token_latches () =
  let fire = ref false in
  let probes = ref 0 in
  let t = C.of_probe ~reason:"test deadline" (fun () -> incr probes; !fire) in
  Alcotest.(check bool) "not fired yet" false (C.cancelled t);
  fire := true;
  Alcotest.(check bool) "probe fires" true (C.cancelled t);
  let after_fire = !probes in
  fire := false;
  (* Latched: the probe is never consulted again and the token stays
     cancelled even though the probe would now say no. *)
  Alcotest.(check bool) "latched" true (C.cancelled t);
  Alcotest.(check int) "probe not re-consulted" after_fire !probes;
  Alcotest.(check string) "reason carried" "test deadline" (C.reason t);
  match C.check t with
  | () -> Alcotest.fail "check should raise after latch"
  | exception C.Cancelled r -> Alcotest.(check string) "payload" "test deadline" r

let test_never_token () =
  Alcotest.(check bool) "never is never cancelled" false (C.cancelled C.never);
  C.check C.never

let test_sim_run_cancels_between_events () =
  let sim = Engine.Sim.create () in
  let executed = ref 0 in
  for i = 1 to 10 do
    Engine.Sim.schedule sim ~delay:(i * 100) (fun _ -> incr executed)
  done;
  (* Fire after the third event: the in-flight event finishes, the rest
     stay queued. *)
  let t = C.of_probe ~reason:"stop at 3" (fun () -> !executed >= 3) in
  (match Engine.Sim.run ~cancel:t sim with
  | () -> Alcotest.fail "expected Cancelled"
  | exception C.Cancelled r -> Alcotest.(check string) "reason" "stop at 3" r);
  Alcotest.(check int) "three events ran" 3 !executed;
  Alcotest.(check int) "rest undrained" 7 (Engine.Sim.pending sim)

(* ------------------------------------------------------------------ *)
(* Runner failure isolation                                            *)
(* ------------------------------------------------------------------ *)

let test_try_exp_isolates_crash () =
  let ctx = R.make_ctx ~profile:fast_profile () in
  (match R.try_exp ctx (exp_of Policy.Registry.Crash_test) with
  | R.Done _ -> Alcotest.fail "crash-test cannot succeed"
  | R.Failed { reason; timed_out } ->
    Alcotest.(check bool) "not a timeout" false timed_out;
    Alcotest.(check bool) "reason mentions the policy" true
      (String.length reason > 0));
  (* The failure is cached: asking again must not re-run (and run_exp
     must surface it as an exception). *)
  Alcotest.(check int) "failure cached" 1 (R.cached_results ctx);
  (match R.run_exp ctx (exp_of Policy.Registry.Crash_test) with
  | _ -> Alcotest.fail "run_exp should raise on a failed trial"
  | exception Failure _ -> ());
  match R.failures ctx with
  | [ (e, _reason, false) ] ->
    Alcotest.(check string) "failure names the trial"
      (R.exp_key (exp_of Policy.Registry.Crash_test))
      (R.exp_key e)
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l)

let test_try_cell_mixes_outcomes () =
  (* A crash-test cell fails every trial; a clock cell beside it in the
     same context still completes. *)
  let ctx =
    R.make_ctx ~profile:{ R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 } ~jobs:2 ()
  in
  let bad =
    R.try_cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Crash_test
      ~ratio:0.5 ~swap:R.Ssd
  in
  let good =
    R.try_cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Clock ~ratio:0.5
      ~swap:R.Ssd
  in
  Alcotest.(check int) "bad cell has all trials" 2 (List.length bad);
  List.iter
    (function
      | R.Failed _ -> ()
      | R.Done _ -> Alcotest.fail "crash-test trial succeeded")
    bad;
  Alcotest.(check int) "good cell has all trials" 2 (List.length good);
  List.iter
    (function
      | R.Done _ -> ()
      | R.Failed { reason; _ } -> Alcotest.failf "clock trial failed: %s" reason)
    good;
  Alcotest.(check int) "both crash trials in failure log" 2
    (List.length (R.failures ctx))

let test_parallel_failures_deterministic () =
  (* The failure summary must list the same trials in the same order for
     every jobs value. *)
  let run jobs =
    let ctx =
      R.make_ctx ~profile:{ R.trials = 3; ycsb_trials = 1; fast = true; scale = 1 } ~jobs ()
    in
    ignore
      (R.try_cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Crash_test
         ~ratio:0.5 ~swap:R.Ssd);
    List.map (fun (e, _, _) -> R.exp_key e) (R.failures ctx)
  in
  let serial = run 1 in
  Alcotest.(check int) "three failures" 3 (List.length serial);
  Alcotest.(check (list string)) "jobs-invariant order" serial (run 4)

let test_trial_timeout () =
  (* A sub-millisecond deadline cannot fit a real trial: it must come
     back Failed with the timeout flag, not hang or raise. *)
  let ctx = R.make_ctx ~profile:fast_profile ~trial_timeout_s:1e-4 () in
  (match R.try_exp ctx (exp_of Policy.Registry.Clock) with
  | R.Done _ -> Alcotest.fail "a 0.1ms deadline cannot fit a trial"
  | R.Failed { reason; timed_out } ->
    Alcotest.(check bool) "flagged as timeout" true timed_out;
    Alcotest.(check bool) "reason mentions the deadline" true
      (String.length reason > 0));
  match R.failures ctx with
  | [ (_, _, true) ] -> ()
  | _ -> Alcotest.fail "expected exactly one timeout in the failure log"

let test_no_timeout_when_disabled () =
  let ctx = R.make_ctx ~profile:fast_profile ~trial_timeout_s:0.0 () in
  match R.try_exp ctx (exp_of Policy.Registry.Clock) with
  | R.Done _ -> ()
  | R.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

(* ------------------------------------------------------------------ *)
(* Journal integration                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_path f =
  let path = Filename.temp_file "supervise_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_outcomes_journaled () =
  with_temp_path (fun path ->
      let journal, _ = J.open_ ~path ~resume:false ~fingerprint in
      let ctx = R.make_ctx ~profile:fast_profile ~journal () in
      let ok = R.try_exp ctx (exp_of Policy.Registry.Clock) in
      ignore (R.try_exp ctx (exp_of Policy.Registry.Crash_test));
      (* Cache hit: must not append a second record. *)
      ignore (R.try_exp ctx (exp_of Policy.Registry.Clock));
      J.close journal;
      let records = J.load ~path in
      Alcotest.(check int) "one record per computed trial" 2
        (List.length records);
      (* Records are keyed by the configuration that produced them. *)
      let find policy =
        List.find (fun r -> r.J.key = R.record_key ctx (exp_of policy)) records
      in
      let okr = find Policy.Registry.Clock in
      Alcotest.(check string) "success recorded" "ok" (J.status_name okr.J.status);
      (match (ok, okr.J.result) with
      | R.Done want, Some got ->
        Alcotest.(check int) "journaled runtime matches" want.M.runtime_ns
          got.M.runtime_ns
      | _ -> Alcotest.fail "expected Done + journaled result");
      let bad = find Policy.Registry.Crash_test in
      Alcotest.(check string) "failure recorded" "failed"
        (J.status_name bad.J.status);
      Alcotest.(check bool) "failure carries no result" true
        (bad.J.result = None))

let test_warm_start_resumes () =
  with_temp_path (fun path ->
      (* First run: journal one success and one failure. *)
      let journal, _ = J.open_ ~path ~resume:false ~fingerprint in
      let ctx = R.make_ctx ~profile:fast_profile ~journal () in
      let first =
        match R.try_exp ctx (exp_of Policy.Registry.Clock) with
        | R.Done r -> r
        | R.Failed { reason; _ } -> Alcotest.failf "clock failed: %s" reason
      in
      ignore (R.try_exp ctx (exp_of Policy.Registry.Crash_test));
      J.close journal;
      (* Resume: only the success warm-starts; the failure is retried. *)
      let journal, records = J.open_ ~path ~resume:true ~fingerprint in
      let ctx2 = R.make_ctx ~profile:fast_profile ~journal () in
      Alcotest.(check int) "one record installed" 1 (R.warm_start ctx2 records);
      Alcotest.(check int) "cache warm" 1 (R.cached_results ctx2);
      (match R.try_exp ctx2 (exp_of Policy.Registry.Clock) with
      | R.Done r ->
        Alcotest.(check int) "warm-started result identical" first.M.runtime_ns
          r.M.runtime_ns
      | R.Failed _ -> Alcotest.fail "warm-started trial reported failed");
      Alcotest.(check int) "no failures inherited" 0
        (List.length (R.failures ctx2));
      J.close journal)

let test_traced_resume_recomputes () =
  with_temp_path (fun path ->
      let journal, _ = J.open_ ~path ~resume:false ~fingerprint in
      let ctx = R.make_ctx ~profile:fast_profile ~journal () in
      let first = R.run_exp ctx (exp_of Policy.Registry.Clock) in
      J.close journal;
      let records = J.load ~path in
      (* Journal records carry no traces, so a tracing context must
         recompute rather than serve a trace-less result. *)
      let traced =
        R.make_ctx ~profile:fast_profile
          ~obs:{ Obs.off with trace = true; sample_every_ns = 0 }
          ()
      in
      Alcotest.(check int) "record installed" 1 (R.warm_start traced records);
      let r = R.run_exp traced (exp_of Policy.Registry.Clock) in
      Alcotest.(check bool) "traced result carries a trace" true
        (r.M.trace <> None);
      Alcotest.(check int) "same simulated runtime" first.M.runtime_ns
        r.M.runtime_ns)

(* A batch run fresh and the same batch with its middle trial
   warm-started from a journal must read back identically: the
   installed record takes its request position, not its install
   position, so the per-cell counters and the failure summary keep
   their order at every [jobs] value. *)
let test_warm_start_matches_fresh () =
  with_temp_path (fun path ->
      let batch =
        List.map exp_of
          Policy.Registry.[ Clock; Mglru_default; Crash_test ]
      in
      let middle = List.nth batch 1 in
      let read_back ctx =
        R.prefetch ctx batch;
        ( List.map (fun (e, c) -> (R.exp_key e, c)) (R.vmstat_cells ctx),
          List.map (fun (e, reason, t) -> (R.exp_key e, reason, t))
            (R.failures ctx) )
      in
      let journal, _ = J.open_ ~path ~resume:false ~fingerprint in
      let fresh =
        read_back (R.make_ctx ~profile:fast_profile ~journal ())
      in
      J.close journal;
      let key = R.record_key (R.make_ctx ~profile:fast_profile ()) middle in
      let records = List.filter (fun r -> r.J.key = key) (J.load ~path) in
      Alcotest.(check int) "middle trial journaled" 1 (List.length records);
      Alcotest.(check int) "two cells" 2 (List.length (fst fresh));
      Alcotest.(check int) "one failure" 1 (List.length (snd fresh));
      List.iter
        (fun jobs ->
          let label what = Printf.sprintf "%s at --jobs %d" what jobs in
          Alcotest.(check bool) (label "fresh") true
            (read_back (R.make_ctx ~profile:fast_profile ~jobs ()) = fresh);
          let ctx = R.make_ctx ~profile:fast_profile ~jobs () in
          Alcotest.(check int) "middle installed" 1 (R.warm_start ctx records);
          let warm = read_back ctx in
          Alcotest.(check bool) (label "warm vmstat cells") true (fst warm = fst fresh);
          Alcotest.(check bool) (label "warm failures") true (snd warm = snd fresh))
        [ 1; 4 ])

let () =
  Alcotest.run "supervise"
    [
      ( "cancel",
        [
          Alcotest.test_case "token latches" `Quick test_cancel_token_latches;
          Alcotest.test_case "never token" `Quick test_never_token;
          Alcotest.test_case "sim run cancels" `Quick
            test_sim_run_cancels_between_events;
        ] );
      ( "runner",
        [
          Alcotest.test_case "try_exp isolates crash" `Quick
            test_try_exp_isolates_crash;
          Alcotest.test_case "try_cell mixes outcomes" `Quick
            test_try_cell_mixes_outcomes;
          Alcotest.test_case "failures jobs-invariant" `Quick
            test_parallel_failures_deterministic;
          Alcotest.test_case "trial timeout" `Quick test_trial_timeout;
          Alcotest.test_case "timeout disabled" `Quick
            test_no_timeout_when_disabled;
        ] );
      ( "journal",
        [
          Alcotest.test_case "outcomes journaled" `Quick test_outcomes_journaled;
          Alcotest.test_case "warm start resumes" `Quick test_warm_start_resumes;
          Alcotest.test_case "traced resume recomputes" `Quick
            test_traced_resume_recomputes;
          Alcotest.test_case "warm start matches fresh" `Quick
            test_warm_start_matches_fresh;
        ] );
    ]
