(* Multi-tenancy (paper SVI-D, future work): two tenants share one
   machine - a latency-sensitive KV cache next to a batch analytics job -
   and fight over the same physical memory under one replacement policy.

     dune exec examples/multi_tenant.exe *)

let make_tenants () =
  let ycsb =
    Workload.Ycsb.create
      ~config:
        {
          Workload.Ycsb.default_config with
          Workload.Ycsb.items = 20_000;
          requests = 120_000;
          threads = 2;
        }
      ~variant:Workload.Ycsb.B
      ~rng:(Engine.Rng.create 7) ()
  in
  let tpch =
    Workload.Tpch.create
      ~config:
        {
          Workload.Tpch.default_config with
          Workload.Tpch.table_pages = 1_200;
          shuffle_pages = 700;
          hash_pages = 300;
          dimension_pages = 200;
          threads = 4;
          queries = 3;
        }
      ~rng:(Engine.Rng.create 8) ()
  in
  Workload.Multi.create
    [
      Workload.Chunk.Packed ((module Workload.Ycsb), ycsb);
      Workload.Chunk.Packed ((module Workload.Tpch), tpch);
    ]

let run policy =
  let tenants = make_tenants () in
  let footprint = Workload.Multi.footprint_pages tenants in
  let config =
    {
      (Repro_core.Machine.default_config
         ~capacity_frames:(footprint / 2)
         ~seed:99)
      with
      Repro_core.Machine.barrier_groups = Some (Workload.Multi.barrier_groups tenants);
    }
  in
  let r =
    Repro_core.Machine.run config
      ~policy:(Policy.Registry.create policy)
      ~workload:(Workload.Chunk.Packed ((module Workload.Multi), tenants))
  in
  (tenants, r)

let () =
  let rows =
    List.map
      (fun policy ->
        let tenants, r = run policy in
        (* Tenant 0 = YCSB (threads 0-1), tenant 1 = TPC-H (threads 2-5). *)
        let finish_of_tenant i =
          let finishes = r.Repro_core.Machine.per_thread_finish in
          Array.to_list finishes
          |> List.filteri (fun tid _ -> Workload.Multi.tenant_of_thread tenants tid = i)
          |> List.fold_left max 0
        in
        let reads = r.Repro_core.Machine.read_latencies in
        let p999 =
          if Array.length reads = 0 then 0.0 else Stats.Percentile.quantile_ns reads 0.999
        in
        Repro_core.Report.
          [
            Text (Policy.Registry.name policy);
            Seconds (float_of_int (finish_of_tenant 0) /. 1e9);
            Seconds (float_of_int (finish_of_tenant 1) /. 1e9);
            Ns p999;
            Count (float_of_int r.Repro_core.Machine.major_faults);
            Int (Repro_core.Machine.count r Obs.Vmstat.direct_reclaims);
          ])
      Policy.Registry.[ Clock; Mglru_default; Fifo ]
  in
  Repro_core.Report.print_figure
    {
      Repro_core.Report.title = "Multi-tenant: YCSB-B cache + TPC-H batch, 50% memory";
      before = [];
      tables =
        [
          Repro_core.Report.make_table ~stem:"multi_tenant"
            ~header:[ "policy"; "cache done"; "batch done"; "cache p99.9"; "faults"; "direct" ]
            rows;
        ];
      after =
        [
          "The batch tenant's table streams compete with the cache tenant's hot";
          "items inside one set of generations/lists - the isolation problem the";
          "paper leaves to future work.";
        ];
    }
