(* Tail-latency study: YCSB-B request latency distributions under both
   policies (the paper's Figures 3/8/12 methodology).

     dune exec examples/tail_latency.exe *)

let () =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ()
  in
  let rows =
    List.concat_map
      (fun policy ->
        let results =
          Repro_core.Runner.run_cell ctx
            ~workload:(Repro_core.Runner.Ycsb Workload.Ycsb.B)
            ~policy ~ratio:0.5 ~swap:Repro_core.Runner.Ssd
        in
        let row kind lat =
          if Structures.Latencies.count lat = 0 then []
          else
            let t = Stats.Percentile.tail_of_runs lat in
            [
              Repro_core.Report.Text (Policy.Registry.name policy ^ " " ^ kind)
              :: List.map (fun ns -> Repro_core.Report.Ns ns)
                   Stats.Percentile.[ t.p50; t.p99; t.p999; t.p9999 ];
            ]
        in
        row "read" (Repro_core.Runner.pooled_read_latencies results)
        @ row "write" (Repro_core.Runner.pooled_write_latencies results))
      Policy.Registry.[ Clock; Mglru_default ]
  in
  Repro_core.Report.print_figure
    {
      Repro_core.Report.title = "YCSB-B tail latencies (SSD, 50% capacity)";
      before = [];
      tables =
        [
          Repro_core.Report.make_table ~stem:"tail_latency"
            ~header:[ "policy/op"; "p50"; "p99"; "p99.9"; "p99.99" ]
            rows;
        ];
      after =
        [
          "The paper's point: mean throughput hides the policy choice; the tails";
          "expose it, and which policy wins depends on the op mix.";
        ];
    }
