(* Swap-medium study: how a faster swap device changes both runtime and
   the number of faults (the paper's Figure 11 phenomenon).

     dune exec examples/zram_vs_ssd.exe *)

let () =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ()
  in
  let cell policy swap =
    Repro_core.Runner.run_cell ctx ~workload:Repro_core.Runner.Pagerank ~policy
      ~ratio:0.5 ~swap
  in
  let rows =
    List.map
      (fun policy ->
        let ssd = cell policy Repro_core.Runner.Ssd in
        let zram = cell policy Repro_core.Runner.Zram in
        let rt_ssd = Repro_core.Runner.mean_runtime_s ssd in
        let rt_zram = Repro_core.Runner.mean_runtime_s zram in
        let f_ssd = Repro_core.Runner.mean_faults ssd in
        let f_zram = Repro_core.Runner.mean_faults zram in
        Repro_core.Report.
          [
            Text (Policy.Registry.name policy);
            Seconds rt_ssd;
            Seconds rt_zram;
            Ratio (rt_zram /. rt_ssd);
            Count f_ssd;
            Count f_zram;
            Ratio (f_zram /. f_ssd);
          ])
      Policy.Registry.[ Mglru_default; Clock ]
  in
  Repro_core.Report.print_figure
    {
      Repro_core.Report.title = "ZRAM vs SSD: PageRank under MG-LRU and Clock (50%)";
      before = [];
      tables =
        [
          Repro_core.Report.make_table ~stem:"zram_vs_ssd"
            ~header:
              [ "policy"; "ssd rt"; "zram rt"; "rt ratio"; "ssd faults"; "zram faults";
                "fault ratio" ]
            rows;
        ];
      after =
        [
          "Faster swap means the application outruns accessed-bit scanning, so";
          "runtime drops by much more than fault counts do - and fault counts can";
          "even rise (paper SVI-B).";
        ];
    }
