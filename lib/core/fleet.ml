(* Multi-tenant containment experiment: N YCSB tenants of different
   temperatures (Workload.Multi) under per-tenant memory cgroups.  The
   hot tenant is a runaway — tighter zipf, double the requests, and a
   hard memory.max — so the question the table answers is the paper's
   graceful-degradation one: does the blast radius stay inside the hot
   tenant's cgroup while the neighbours keep their tails? *)

let tenant_name ~hot i = if i = hot then "hot" else Printf.sprintf "tenant%d" i

(* Auto spec when the CLI supplied none: each tenant (2 threads, laid
   out consecutively by Workload.Multi) gets its own cgroup.  The hot
   tenant is capped hard at ~40% of physical capacity with throttling
   from 30%; the neighbours get ~15% of reclaim protection each.  The
   proactive probe nudges the hot tenant's effective limit down while
   its PSI stays calm. *)
let default_spec ~tenants ~hot =
  {
    Mem.Memcg.groups =
      List.init tenants (fun i ->
          let base =
            {
              Mem.Memcg.g_name = tenant_name ~hot i;
              g_threads = [ (2 * i, (2 * i) + 1) ];
              g_low = None;
              g_high = None;
              g_max = None;
            }
          in
          if i = hot then
            {
              base with
              Mem.Memcg.g_high = Some (Mem.Spec_syntax.Frac 0.30);
              g_max = Some (Mem.Spec_syntax.Frac 0.40);
            }
          else { base with Mem.Memcg.g_low = Some (Mem.Spec_syntax.Frac 0.15) });
    proactive =
      Some
        {
          Mem.Memcg.p_interval_ns = 100_000_000;
          p_threshold = 0.10;
          p_step = Mem.Spec_syntax.Frac 0.01;
        };
    psi_interval_ns = 100_000_000;
  }

(* Pooled per-cgroup aggregates over a cell's successful trials, in
   group order (root first, like Memcg.summary). *)
type tenant_agg = {
  a_name : string;
  mutable a_usage : int;
  mutable a_throttles : int;
  mutable a_throttled_ns : int;
  mutable a_ooms : int;
  mutable a_some_ns : int;
  mutable a_full_ns : int;
  mutable a_reads : Structures.Latencies.runs list;
}

let aggregate results =
  let groups : (string, tenant_agg) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let runtime = ref 0 in
  List.iter
    (fun (r : Machine.stored) ->
      runtime := !runtime + r.Machine.runtime_ns;
      match r.Machine.memcg with
      | None -> ()
      | Some s ->
        List.iter
          (fun (g : Mem.Memcg.report) ->
            let a =
              match Hashtbl.find_opt groups g.Mem.Memcg.r_name with
              | Some a -> a
              | None ->
                let a =
                  {
                    a_name = g.Mem.Memcg.r_name;
                    a_usage = 0;
                    a_throttles = 0;
                    a_throttled_ns = 0;
                    a_ooms = 0;
                    a_some_ns = 0;
                    a_full_ns = 0;
                    a_reads = [];
                  }
                in
                Hashtbl.add groups g.Mem.Memcg.r_name a;
                order := a :: !order;
                a
            in
            a.a_usage <- a.a_usage + g.Mem.Memcg.r_usage;
            a.a_throttles <- a.a_throttles + g.Mem.Memcg.r_throttles;
            a.a_throttled_ns <- a.a_throttled_ns + g.Mem.Memcg.r_throttled_ns;
            a.a_ooms <- a.a_ooms + g.Mem.Memcg.r_oom_kills;
            a.a_some_ns <- a.a_some_ns + g.Mem.Memcg.r_psi_some_ns;
            a.a_full_ns <- a.a_full_ns + g.Mem.Memcg.r_psi_full_ns;
            a.a_reads <- g.Mem.Memcg.r_read_latencies :: a.a_reads)
          s.Mem.Memcg.s_groups)
    results;
  (List.rev !order, !runtime)

let run ctx ~tenants ~hot ~policy ~ratio ~swap =
  if tenants < 2 then invalid_arg "Fleet.run: need at least 2 tenants";
  if hot < 0 || hot >= tenants then invalid_arg "Fleet.run: hot out of range";
  let ctx =
    match Runner.cgroups ctx with
    | Some _ -> ctx
    | None -> Runner.derive ~cgroups:(Some (default_spec ~tenants ~hot)) ctx
  in
  let workload = Runner.Fleet { fl_tenants = tenants; fl_hot = hot } in
  let c = Figures.cell ctx ~workload ~policy ~ratio ~swap in
  let results = c.Figures.results in
  let aggs, runtime_ns = aggregate results in
  let psi stall =
    if runtime_ns <= 0 then Report.Dash
    else Report.Percent (100.0 *. float_of_int stall /. float_of_int runtime_ns)
  in
  let rows =
    List.map
      (fun a ->
        let reads = Structures.Latencies.merge a.a_reads in
        let q p =
          if Structures.Latencies.count reads = 0 then Report.Dash
          else Report.Ns (Stats.Percentile.quantile_runs reads p)
        in
        Report.
          [
            Text a.a_name;
            Int (a.a_usage / max 1 (List.length results));
            q 0.5;
            q 0.99;
            q 0.999;
            Int a.a_throttles;
            Ns (float_of_int a.a_throttled_ns);
            Int a.a_ooms;
            psi a.a_some_ns;
            psi a.a_full_ns;
          ])
      aggs
  in
  {
    Report.title =
      Printf.sprintf "Fleet: %d tenants (hot=%d) / %s / %.0f%% / %s" tenants hot
        (Policy.Registry.name policy) (ratio *. 100.0) (Runner.swap_name swap);
    before =
      (if c.Figures.failed > 0 then
         [
           Printf.sprintf "%d of %d trial(s) failed" c.Figures.failed
             (List.length c.Figures.outcomes);
         ]
       else []);
    tables =
      [
        Report.make_table ~stem:"fleet"
          ~header:
            [
              "cgroup"; "usage"; "p50"; "p99"; "p999"; "throttles"; "throttled";
              "oom"; "psi_some"; "psi_full";
            ]
          rows;
      ];
    after =
      (if results = [] then []
       else
         [
           Printf.sprintf "mean runtime %s over %d trial(s); oom kills %d"
             (Report.fsec (Runner.mean_runtime_s results))
             (List.length results)
             (List.fold_left (fun n x -> n + Machine.count x Obs.Vmstat.oom_kill) 0 results);
         ]);
  }
