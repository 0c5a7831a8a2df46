(* One trial: the fast tier holds [fast_frac] of the footprint (sized
   like a cell's machine), the slow tier the rest plus 10 % slack. *)
let run_one ctx ~workload ~policy ~fast_frac ~trial =
  let w = Runner.make_workload ctx workload ~trial in
  let footprint = Workload.Chunk.packed_footprint w in
  let fast = Runner.capacity_for ~footprint ~ratio:fast_frac in
  let slow = footprint - fast + (footprint / 10) in
  let cfg =
    Tiering.Tier_machine.default_config ~fast_frames:fast ~slow_frames:slow
      ~seed:(1_000_003 * (trial + 1))
  in
  Tiering.Tier_machine.run cfg
    ~policy:(Tiering.Tier_registry.create policy)
    ~workload:w

let study_workloads = [ Runner.Tpch; Runner.Pagerank; Runner.Ycsb Workload.Ycsb.B ]

let study ?(fast_frac = 0.5) ?(trials = 3) ctx () =
  (* The whole workload x policy x trial grid runs through the domain
     pool in one batch; each trial builds its own workload and tier
     machine, so cells are independent.  Results come back in input
     order and feed the serial table pass below. *)
  let grid =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun policy ->
            List.init trials (fun trial -> (workload, policy, trial)))
          Tiering.Tier_registry.all)
      study_workloads
  in
  let all_results =
    Engine.Pool.with_pool
      ~jobs:(min (Runner.jobs ctx) (List.length grid))
      (fun pool ->
        Engine.Pool.map_list pool
          (fun (workload, policy, trial) ->
            run_one ctx ~workload ~policy ~fast_frac ~trial)
          grid)
  in
  let results_of =
    let tbl = Hashtbl.create 16 in
    List.iter2
      (fun (workload, policy, _trial) r ->
        let key = (workload, Tiering.Tier_registry.name policy) in
        Hashtbl.replace tbl key
          (match Hashtbl.find_opt tbl key with
          | Some rs -> rs @ [ r ]
          | None -> [ r ]))
      grid all_results;
    fun workload policy ->
      match Hashtbl.find_opt tbl (workload, Tiering.Tier_registry.name policy) with
      | Some rs -> rs
      | None -> []
  in
  let table workload =
    let rows =
      List.map
        (fun policy ->
          let results = results_of workload policy in
          let mean f =
            List.fold_left (fun acc r -> acc +. f r) 0.0 results /. float_of_int trials
          in
          let count f = Report.Count (mean (fun r -> float_of_int (f r))) in
          Report.
            [
              Text (Tiering.Tier_registry.name policy);
              Seconds
                (mean (fun r -> float_of_int r.Tiering.Tier_machine.runtime_ns /. 1e9));
              Percent (100.0 *. mean Tiering.Tier_machine.slow_fraction);
              count (fun r -> r.Tiering.Tier_machine.promotions);
              count (fun r -> r.Tiering.Tier_machine.demotions);
              count (fun r -> r.Tiering.Tier_machine.hint_faults);
              count (fun r -> r.Tiering.Tier_machine.failed_promotions);
            ])
        Tiering.Tier_registry.all
    in
    Report.make_table
      ~caption:[ ("workload", Runner.workload_kind_name workload) ]
      ~stem:"tier"
      ~header:
        [ "policy"; "runtime"; "slow touches"; "promotions"; "demotions";
          "hint faults"; "failed promo" ]
      rows
  in
  {
    Report.title =
      Printf.sprintf "Tiered memory study: fast tier = %.0f%% of footprint"
        (fast_frac *. 100.0);
    before =
      [
        "Runtime, slow-tier access share and migration traffic per policy; no";
        "swap device - every touch completes, slow ones just cost more.";
      ];
    tables = List.map table study_workloads;
    after =
      [
        "Expected shape (paper SII-C): static pins whatever loaded first;";
        "autonuma promotes but cannot demote, so it stalls once the fast tier";
        "fills (failed promotions); thermostat and tpp keep migrating and hold";
        "the lowest slow-touch share.";
      ];
  }
