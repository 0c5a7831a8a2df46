(* Policy shootout: every registered policy on the same TPC-H instance.

     dune exec examples/policy_shootout.exe

   Uses the fast profile so it finishes in seconds; identical workload
   seeds make the comparison paired. *)

let () =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }
      ()
  in
  let policies =
    List.filter_map Policy.Registry.of_name Policy.Registry.known_names
  in
  (* A failed cell (crash-test always fails) has NaN means: it renders
     "failed" and sorts last. *)
  let rows =
    List.map
      (fun policy ->
        let c =
          Repro_core.Figures.cell ctx ~workload:Repro_core.Runner.Tpch ~policy ~ratio:0.5
            ~swap:Repro_core.Runner.Ssd
        in
        (Policy.Registry.name policy, Repro_core.Figures.mean_runtime c,
         c.Repro_core.Figures.mean_faults))
      policies
  in
  let best_rt =
    List.fold_left (fun acc (_, rt, _) -> Float.min_num acc rt) infinity rows
  in
  Repro_core.Report.print_figure
    {
      Repro_core.Report.title = "Policy shootout: TPC-H, SSD swap, 50% capacity";
      before = [];
      tables =
        [
          Repro_core.Report.make_table ~stem:"policy_shootout"
            ~header:[ "policy"; "mean runtime"; "vs best"; "mean faults" ]
            (List.map
               (fun (name, rt, faults) ->
                 Repro_core.Report.
                   [ Text name; Seconds rt; Ratio (rt /. best_rt); Count faults ])
               (List.sort
                  (fun (_, a, _) (_, b, _) -> compare (Float.is_nan a, a) (Float.is_nan b, b))
                  rows));
        ];
      after =
        [
          "lru-exact uses a per-access oracle no hardware policy gets; fifo and";
          "random bound the value of recency information from below.";
        ];
    }
