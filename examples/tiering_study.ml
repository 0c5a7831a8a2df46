let () =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ()
  in
  Repro_core.Report.print_figure (Repro_core.Tier_study.study ~trials:1 ctx ())
