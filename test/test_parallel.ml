(* Serial/parallel equivalence: the acceptance property of the parallel
   engine.  A jobs=4 context must produce Machine.result aggregates,
   figure stdout and exported CSV bytes identical to a jobs=1 context —
   with and without fault injection. *)

module R = Repro_core.Runner
module M = Repro_core.Machine
module V = Obs.Vmstat

let fast_profile = { R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }

let serial_ctx () = R.make_ctx ~profile:fast_profile ~jobs:1 ()

let parallel_ctx () = R.make_ctx ~profile:fast_profile ~jobs:4 ()

let result_fingerprint (r : Repro_core.Machine.stored) =
  ( r.Repro_core.Machine.runtime_ns,
    r.Repro_core.Machine.major_faults,
    r.Repro_core.Machine.minor_faults,
    M.count r V.pswpin,
    M.count r V.pswpout,
    M.count r V.direct_reclaims )

let check_cell_equal name c_serial c_parallel ~workload ~policy ~ratio ~swap =
  let rs = R.run_cell c_serial ~workload ~policy ~ratio ~swap in
  let rp = R.run_cell c_parallel ~workload ~policy ~ratio ~swap in
  Alcotest.(check int) (name ^ ": trial count") (List.length rs) (List.length rp);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (name ^ ": identical trial results")
        true
        (result_fingerprint a = result_fingerprint b
        && a.Repro_core.Machine.read_latencies = b.Repro_core.Machine.read_latencies
        && a.Repro_core.Machine.policy_stats = b.Repro_core.Machine.policy_stats))
    rs rp

let test_cells_identical () =
  let cs = serial_ctx () and cp = parallel_ctx () in
  check_cell_equal "tpch/mglru/ssd" cs cp ~workload:R.Tpch
    ~policy:Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Ssd;
  check_cell_equal "pagerank/clock/zram" cs cp ~workload:R.Pagerank
    ~policy:Policy.Registry.Clock ~ratio:0.75 ~swap:R.Zram;
  check_cell_equal "ycsb-b/scan-none/ssd" cs cp
    ~workload:(R.Ycsb Workload.Ycsb.B) ~policy:Policy.Registry.Scan_none
    ~ratio:0.5 ~swap:R.Ssd

let test_cells_identical_under_faults () =
  let plan = Swapdev.Faulty_device.light in
  let cs = R.make_ctx ~profile:fast_profile ~fault_plan:plan ~jobs:1 () in
  let cp = R.make_ctx ~profile:fast_profile ~fault_plan:plan ~jobs:4 () in
  check_cell_equal "tpch/mglru/ssd+faults" cs cp ~workload:R.Tpch
    ~policy:Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Ssd;
  check_cell_equal "pagerank/clock/ssd+faults" cs cp ~workload:R.Pagerank
    ~policy:Policy.Registry.Clock ~ratio:0.5 ~swap:R.Ssd

(* Stdout capture via a temp-file redirect (same trick as test_report). *)
let capture f =
  let path = Filename.temp_file "parallel" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let inc = open_in path in
  let n = in_channel_length inc in
  let s = really_input_string inc n in
  close_in inc;
  Sys.remove path;
  s

let print_fig1 ctx () =
  List.iter Repro_core.Report.print_figure (Repro_core.Figures.build ctx [ Repro_core.Figures.paper 1 ])

let test_figure_output_identical () =
  let out_serial = capture (print_fig1 (serial_ctx ())) in
  let out_parallel = capture (print_fig1 (parallel_ctx ())) in
  Alcotest.(check bool) "figure 1 printed something" true
    (String.length out_serial > 0);
  Alcotest.(check string) "fig1 stdout byte-identical" out_serial out_parallel

let read_file path =
  let inc = open_in_bin path in
  let n = in_channel_length inc in
  let s = really_input_string inc n in
  close_in inc;
  s

let test_csv_bytes_identical () =
  let export ctx =
    let dir = Filename.temp_file "fig1" ".csv.d" in
    Sys.remove dir;
    let paths =
      List.concat_map
        (Repro_core.Csv_export.write_figure ~dir)
        (Repro_core.Figures.build ctx [ Repro_core.Figures.paper 1 ])
    in
    let bytes = List.map read_file paths in
    List.iter Sys.remove paths;
    Sys.rmdir dir;
    bytes
  in
  let b_serial = export (serial_ctx ()) in
  let b_parallel = export (parallel_ctx ()) in
  Alcotest.(check bool) "csv non-empty" true
    (b_serial <> [] && List.for_all (fun b -> String.length b > 0) b_serial);
  Alcotest.(check (list string)) "csv byte-identical" b_serial b_parallel

let test_prefetch_fills_cache () =
  let ctx = parallel_ctx () in
  let exps =
    List.concat_map
      (fun policy ->
        R.cell_exps ctx ~workload:R.Tpch ~policy ~ratio:0.5 ~swap:R.Ssd)
      Policy.Registry.[ Clock; Mglru_default; Scan_none ]
  in
  R.prefetch ctx exps;
  Alcotest.(check int) "all trials memoized" (List.length exps)
    (R.cached_results ctx);
  (* Read-back must not recompute: physical equality with the cache. *)
  List.iter
    (fun e ->
      let r1 = R.run_exp ctx e in
      let r2 = R.run_exp ctx e in
      Alcotest.(check bool) "served from cache" true (r1 == r2))
    exps

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "cells identical" `Slow test_cells_identical;
          Alcotest.test_case "cells identical under faults" `Slow
            test_cells_identical_under_faults;
          Alcotest.test_case "figure stdout identical" `Slow
            test_figure_output_identical;
          Alcotest.test_case "csv bytes identical" `Slow test_csv_bytes_identical;
          Alcotest.test_case "prefetch fills cache" `Slow test_prefetch_fills_cache;
        ] );
    ]
