(* End-to-end: full workloads through the machine at the fast profile,
   checking the cross-module behaviours the figures rely on. *)

module R = Repro_core.Runner
module M = Repro_core.Machine

let ctx =
  R.make_ctx ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 } ()

let run workload policy ~ratio ~swap =
  R.run_exp ctx { R.workload; policy; ratio; swap; trial = 0 }

let test_all_workload_policy_pairs_complete () =
  List.iter
    (fun workload ->
      List.iter
        (fun policy ->
          let r = run workload policy ~ratio:0.5 ~swap:R.Ssd in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s runs" (R.workload_kind_name workload)
               (Policy.Registry.name policy))
            true
            (r.M.runtime_ns > 0 && r.M.major_faults > 0))
        Policy.Registry.[ Clock; Mglru_default ])
    R.all_workloads

let test_variants_complete_on_tpch () =
  List.iter
    (fun policy ->
      let r = run R.Tpch policy ~ratio:0.5 ~swap:R.Ssd in
      Alcotest.(check bool)
        (Policy.Registry.name policy ^ " completes")
        true (r.M.runtime_ns > 0))
    Policy.Registry.[ Gen14; Scan_all; Scan_none; Scan_rand 0.5; Fifo; Lru_exact ]

let test_memory_pressure_gradient () =
  (* More memory -> fewer faults and shorter runtime, for both policies. *)
  List.iter
    (fun policy ->
      let at ratio = run R.Tpch policy ~ratio ~swap:R.Ssd in
      let r50 = at 0.5 and r75 = at 0.75 and r90 = at 0.9 in
      Alcotest.(check bool) "faults decrease" true
        (r90.M.major_faults < r75.M.major_faults
        && r75.M.major_faults < r50.M.major_faults);
      Alcotest.(check bool) "runtime decreases" true
        (r90.M.runtime_ns < r50.M.runtime_ns))
    Policy.Registry.[ Clock; Mglru_default ]

let test_zram_shifts_bottleneck () =
  let ssd = run R.Pagerank Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Ssd in
  let zram = run R.Pagerank Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Zram in
  Alcotest.(check bool) "zram much faster" true
    (float_of_int zram.M.runtime_ns < 0.6 *. float_of_int ssd.M.runtime_ns);
  Alcotest.(check bool) "zram does not fault less" true
    (zram.M.major_faults >= (ssd.M.major_faults * 9 / 10))

let test_ycsb_latency_capture () =
  let r = run (R.Ycsb Workload.Ycsb.A) Policy.Registry.Clock ~ratio:0.5 ~swap:R.Ssd in
  let reads = Structures.Latencies.count r.M.read_latencies in
  let writes = Structures.Latencies.count r.M.write_latencies in
  let total = reads + writes in
  Alcotest.(check bool) "every request recorded" true (total >= 200_000);
  let frac = float_of_int writes /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "write fraction %.3f near 0.5" frac)
    true
    (Float.abs (frac -. 0.5) < 0.02);
  (* Tails are far above the median under SSD thrash. *)
  let t = Stats.Percentile.tail_of_runs r.M.read_latencies in
  Alcotest.(check bool) "p99.99 >> p50" true
    (t.Stats.Percentile.p9999 > 4.0 *. t.Stats.Percentile.p50)

let test_conservation_after_run () =
  let r = run R.Tpch Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Ssd in
  let w = R.make_workload ctx R.Tpch ~trial:0 in
  let footprint = Workload.Chunk.packed_footprint w in
  let capacity = int_of_float (float_of_int footprint *. 0.5) in
  Alcotest.(check bool)
    (Printf.sprintf "resident %d <= capacity %d" r.M.resident_at_end capacity)
    true
    (r.M.resident_at_end <= capacity)

let test_identical_workload_across_policies () =
  (* The paired-seed contract: minor faults (= distinct pages touched)
     must agree between policies on the same trial. *)
  let a = run R.Tpch Policy.Registry.Clock ~ratio:0.5 ~swap:R.Ssd in
  let b = run R.Tpch Policy.Registry.Scan_none ~ratio:0.5 ~swap:R.Ssd in
  Alcotest.(check int) "same first-touch footprint" a.M.minor_faults b.M.minor_faults

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all pairs complete" `Slow test_all_workload_policy_pairs_complete;
          Alcotest.test_case "variants complete" `Slow test_variants_complete_on_tpch;
          Alcotest.test_case "pressure gradient" `Slow test_memory_pressure_gradient;
          Alcotest.test_case "zram bottleneck" `Slow test_zram_shifts_bottleneck;
          Alcotest.test_case "ycsb latency capture" `Slow test_ycsb_latency_capture;
          Alcotest.test_case "conservation" `Quick test_conservation_after_run;
          Alcotest.test_case "paired workloads" `Quick test_identical_workload_across_policies;
        ] );
    ]
