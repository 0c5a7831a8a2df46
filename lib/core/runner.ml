type workload_kind =
  | Tpch
  | Pagerank
  | Ycsb of Workload.Ycsb.variant
  | Fleet of { fl_tenants : int; fl_hot : int }

type swap_medium = Ssd | Zram

type exp = {
  workload : workload_kind;
  policy : Policy.Registry.spec;
  ratio : float;
  swap : swap_medium;
  trial : int;
}

let workload_kind_name = function
  | Tpch -> "tpch"
  | Pagerank -> "pagerank"
  | Ycsb v -> Workload.Ycsb.variant_name v
  | Fleet { fl_tenants; fl_hot } -> Printf.sprintf "fleet%d-h%d" fl_tenants fl_hot

let all_workloads =
  [ Tpch; Pagerank; Ycsb Workload.Ycsb.A; Ycsb Workload.Ycsb.B; Ycsb Workload.Ycsb.C ]

let swap_name = function Ssd -> "ssd" | Zram -> "zram"

let exp_name e =
  Printf.sprintf "%s/%s/%.0f%%/%s/t%d"
    (workload_kind_name e.workload)
    (Policy.Registry.name e.policy)
    (e.ratio *. 100.0) (swap_name e.swap) e.trial

(* Cache key: like [exp_name] but injective — the policy part encodes
   every parameter (two distinct [Mglru_custom] configs must not alias),
   and the ratio keeps full precision. *)
let exp_key e =
  Printf.sprintf "%s/%s/%.9g/%s/t%d"
    (workload_kind_name e.workload)
    (Policy.Registry.cache_key e.policy)
    e.ratio (swap_name e.swap) e.trial

type profile = {
  trials : int;
  ycsb_trials : int;
  fast : bool;
  scale : int;
}

let default_profile = { trials = 25; ycsb_trials = 2; fast = false; scale = 1 }

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n -> max 1 n
    | None ->
      Printf.eprintf "warning: ignoring %s=%S (not an integer); using %d\n%!"
        name v default;
      default)

(* The single place the REPRO_* fallback variables are read. *)
let profile_from_env () =
  {
    trials = env_int "REPRO_TRIALS" default_profile.trials;
    ycsb_trials = env_int "REPRO_YCSB_TRIALS" default_profile.ycsb_trials;
    fast = Sys.getenv_opt "REPRO_FAST" <> None;
    scale = env_int "REPRO_SCALE" default_profile.scale;
  }

(* ------------------------------------------------------------------ *)
(* Run context: everything that shapes a trial's result, as one        *)
(* explicit value instead of process-global mutation.                  *)
(* ------------------------------------------------------------------ *)

(* The result cache is sharded so parallel trials can publish results
   without serializing on one lock.  Shard count is a power of two well
   above any sane [jobs]. *)
let cache_shards = 32

(* What became of one trial.  Failures are first-class cache entries:
   a raising or deadline-hit trial is computed once, rendered as an
   explicit "failed" cell, and never silently retried within a run. *)
type trial_outcome =
  | Done of Machine.result
  | Failed of { reason : string; timed_out : bool }

type shard = {
  lock : Mutex.t;
  tbl : (string, trial_outcome) Hashtbl.t;
}

type ctx = {
  profile : profile;
  fault_plan : Swapdev.Faulty_device.plan;
  audit_every_ns : int;
  jobs : int;
  obs : Obs.config;
  prof : Obs.Prof.config;
  trial_timeout_s : float;
  journal : Journal.t option;
  cgroups : Mem.Memcg.spec option;
  chaos : Chaos.spec option;
  damon : Mem.Damon.config option;
  cache : shard array;
  (* Bookkeeping: every requested experiment, in first-request program
     order.  Appended only from the dispatching domain (prefetch logs
     its whole deduplicated todo list before any worker starts; direct
     [run_exp] misses happen in the callers' serial read-back), so the
     order — and hence the trace files and the end-of-run failure
     summary — is identical for every [jobs] value. *)
  logged : (string, unit) Hashtbl.t;
  log : exp list ref;
  log_lock : Mutex.t;
}

let make_ctx ?profile ?(fault_plan = Swapdev.Faulty_device.none)
    ?(audit_every_ns = 0) ?(jobs = 1) ?(obs = Obs.off)
    ?(prof = Obs.Prof.off) ?(trial_timeout_s = 0.0) ?journal ?cgroups ?chaos
    ?damon () =
  let profile =
    match profile with Some p -> p | None -> profile_from_env ()
  in
  {
    profile;
    fault_plan;
    audit_every_ns = max 0 audit_every_ns;
    jobs = max 1 jobs;
    obs;
    prof;
    trial_timeout_s = (if trial_timeout_s > 0.0 then trial_timeout_s else 0.0);
    journal;
    cgroups;
    chaos;
    damon;
    cache =
      Array.init cache_shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 32 });
    logged = Hashtbl.create 64;
    log = ref [];
    log_lock = Mutex.create ();
  }

(* [ctx] with a private result cache, experiment log and dedup table. *)
let fresh_cache ctx =
  let { cache; logged; log; log_lock; _ } = make_ctx ~profile:ctx.profile () in
  { ctx with cache; logged; log; log_lock }

let profile ctx = ctx.profile

let fault_plan ctx = ctx.fault_plan

let audit_every_ns ctx = ctx.audit_every_ns

let jobs ctx = ctx.jobs

let obs ctx = ctx.obs

let prof ctx = ctx.prof

let trial_timeout_s ctx = ctx.trial_timeout_s

let cgroups ctx = ctx.cgroups

let chaos ctx = ctx.chaos

let damon ctx = ctx.damon

(* A derived context with a cgroup spec installed.  The cache, log and
   dedup tables are fresh: [cgroups] is ctx-level (like [fault_plan])
   and deliberately not part of {!exp_key}, so sharing the parent's
   cache would alias runs computed under different specs. *)
let with_cgroups ctx spec = fresh_cache { ctx with cgroups = Some spec }

(* Same derivation for chaos specs ([None] = strip any installed spec);
   [?cgroups] lets a chaos class that needs a cgroup (limit churn)
   install one in the same derived context. *)
let with_chaos ?cgroups ?obs ctx chaos =
  fresh_cache
    {
      ctx with
      chaos;
      cgroups = (match cgroups with Some _ as c -> c | None -> ctx.cgroups);
      obs = Option.value obs ~default:ctx.obs;
    }

(* Same derivation for the DAMON region monitor: monitored results
   carry heatmap captures, so they must never alias a cache populated
   without the monitor (results are otherwise identical — the monitor
   observes without perturbing — but the capture field differs). *)
let with_damon ctx config = fresh_cache { ctx with damon = Some config }

(* Bump whenever a change alters some trial's result for the same
   inputs: journals written before it are then refused on resume. *)
let model_version = 1

let fingerprint ctx =
  let plan =
    let p = ctx.fault_plan in
    match
      List.find_opt
        (fun n -> Swapdev.Faulty_device.plan_of_name n = Some p)
        [ "none"; "light"; "heavy" ]
    with
    | Some name -> name
    | None -> "custom-" ^ Digest.to_hex (Digest.string (Marshal.to_string p []))
  in
  let spec to_string = Option.fold ~none:"none" ~some:to_string in
  [
    ("model", string_of_int model_version);
    ("fast", string_of_bool ctx.profile.fast);
    ("scale", string_of_int ctx.profile.scale);
    ("faults", plan);
    ("audit_every_ns", string_of_int ctx.audit_every_ns);
    ("cgroups", spec Mem.Memcg.spec_to_string ctx.cgroups);
    ("chaos", spec Chaos.spec_to_string ctx.chaos);
  ]

let log_exp ctx e key =
  Mutex.lock ctx.log_lock;
  if not (Hashtbl.mem ctx.logged key) then begin
    Hashtbl.add ctx.logged key ();
    ctx.log := e :: !(ctx.log)
  end;
  Mutex.unlock ctx.log_lock

let traced_exps ctx =
  Mutex.lock ctx.log_lock;
  let l = List.rev !(ctx.log) in
  Mutex.unlock ctx.log_lock;
  l

let shard_of ctx key =
  ctx.cache.(Hashtbl.hash key land (cache_shards - 1))

let cache_find ctx key =
  let s = shard_of ctx key in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.tbl key in
  Mutex.unlock s.lock;
  r

(* First insert wins, so concurrent duplicate computations (which are
   deterministic and identical anyway) keep physical equality stable for
   later lookups. *)
let cache_store ctx key result =
  let s = shard_of ctx key in
  Mutex.lock s.lock;
  let kept =
    match Hashtbl.find_opt s.tbl key with
    | Some existing -> existing
    | None ->
      Hashtbl.add s.tbl key result;
      result
  in
  Mutex.unlock s.lock;
  kept

let cached_results ctx =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = acc + Hashtbl.length s.tbl in
      Mutex.unlock s.lock;
      n)
    0 ctx.cache

(* ------------------------------------------------------------------ *)

let trials_for ctx = function
  | Tpch | Pagerank -> ctx.profile.trials
  | Ycsb _ | Fleet _ -> ctx.profile.ycsb_trials

let kind_id = function
  | Tpch -> 1
  | Pagerank -> 2
  | Ycsb Workload.Ycsb.A -> 3
  | Ycsb Workload.Ycsb.B -> 4
  | Ycsb Workload.Ycsb.C -> 5
  (* Offset past the fixed kinds and spread by both parameters so
     distinct fleet shapes never share a workload seed. *)
  | Fleet { fl_tenants; fl_hot } -> 6 + (fl_tenants * 13) + (fl_hot * 131)

(* Workload seed: (kind, trial) only — policies share workload
   instances within a trial. *)
let workload_seed kind ~trial = 0x5EED + (kind_id kind * 7919) + (trial * 104729)

let fast_tpch =
  {
    Workload.Tpch.default_config with
    Workload.Tpch.table_pages = 1_750;
    shuffle_pages = 1_125;
    hash_pages = 500;
    queries = 4;
  }

let fast_pagerank =
  {
    Workload.Pagerank.default_config with
    Workload.Pagerank.graph =
      {
        Workload.Pagerank.default_config.Workload.Pagerank.graph with
        Workload.Graph.n = 393_216;
      };
    iterations = 6;
  }

let fast_ycsb =
  {
    Workload.Ycsb.default_config with
    Workload.Ycsb.items = 28_000;
    requests = 220_000;
  }

(* --scale N: grow every workload's page-count dimensions by N toward
   the paper's native footprints (3-4M pages around N=256), while
   {!compute_exp} shrinks simulated per-page costs by the same factor —
   one simulated page at the default seed scale stands for 256 real
   pages.  N = 1 changes nothing, so default-scale figure output stays
   byte-identical. *)
let scale_tpch s (c : Workload.Tpch.config) =
  if s = 1 then c
  else
    {
      c with
      Workload.Tpch.table_pages = c.Workload.Tpch.table_pages * s;
      shuffle_pages = c.Workload.Tpch.shuffle_pages * s;
      hash_pages = c.Workload.Tpch.hash_pages * s;
      dimension_pages = c.Workload.Tpch.dimension_pages * s;
    }

let scale_pagerank s (c : Workload.Pagerank.config) =
  if s = 1 then c
  else
    {
      c with
      Workload.Pagerank.graph =
        {
          c.Workload.Pagerank.graph with
          Workload.Graph.n = c.Workload.Pagerank.graph.Workload.Graph.n * s;
        };
    }

let scale_ycsb s (c : Workload.Ycsb.config) =
  if s = 1 then c
  else
    {
      c with
      Workload.Ycsb.items = c.Workload.Ycsb.items * s;
      requests = c.Workload.Ycsb.requests * s;
    }

(* One fleet tenant: a YCSB instance with its own temperature.  The
   [hot] tenant runs a tighter zipf (1.1) over twice the requests — the
   runaway neighbour of the containment experiments; the rest are
   lukewarm (zipf 0.8). *)
let fleet_tenant ctx ~seed ~tenant ~hot =
  let base = if ctx.profile.fast then fast_ycsb else Workload.Ycsb.default_config in
  let base = scale_ycsb ctx.profile.scale base in
  let config =
    if tenant = hot then
      { base with Workload.Ycsb.zipf_exponent = 1.1; requests = 2 * base.Workload.Ycsb.requests }
    else { base with Workload.Ycsb.zipf_exponent = 0.8 }
  in
  let config = { config with Workload.Ycsb.threads = 2 } in
  let rng = Engine.Rng.create (seed + (tenant * 7919)) in
  Workload.Chunk.Packed
    ((module Workload.Ycsb), Workload.Ycsb.create ~config ~variant:Workload.Ycsb.A ~rng ())

let make_fleet ctx ~tenants ~hot ~trial =
  let seed = workload_seed (Fleet { fl_tenants = tenants; fl_hot = hot }) ~trial in
  Workload.Multi.create
    (List.init tenants (fun tenant -> fleet_tenant ctx ~seed ~tenant ~hot))

let make_workload ctx kind ~trial =
  let seed = workload_seed kind ~trial in
  let fast = ctx.profile.fast in
  let scale = ctx.profile.scale in
  match kind with
  | Tpch ->
    let config = if fast then fast_tpch else Workload.Tpch.default_config in
    let config = scale_tpch scale config in
    let rng = Engine.Rng.create seed in
    Workload.Chunk.Packed
      ((module Workload.Tpch), Workload.Tpch.create ~config ~rng ())
  | Pagerank ->
    let config = if fast then fast_pagerank else Workload.Pagerank.default_config in
    let config = scale_pagerank scale config in
    Workload.Chunk.Packed
      ((module Workload.Pagerank), Workload.Pagerank.create ~config ~seed ())
  | Ycsb variant ->
    let config = if fast then fast_ycsb else Workload.Ycsb.default_config in
    let config = scale_ycsb scale config in
    let rng = Engine.Rng.create seed in
    Workload.Chunk.Packed
      ((module Workload.Ycsb), Workload.Ycsb.create ~config ~variant ~rng ())
  | Fleet { fl_tenants; fl_hot } ->
    Workload.Chunk.Packed
      ((module Workload.Multi), make_fleet ctx ~tenants:fl_tenants ~hot:fl_hot ~trial)

let machine_swap = function
  | Ssd -> Machine.ssd
  | Zram -> Machine.zram

(* Per-trial wall-clock deadline as a cooperative cancellation token.
   The probe runs between simulation events, so it rate-limits the
   actual clock reads; cancellation can therefore overshoot the deadline
   by a few hundred events, which is fine for a watchdog. *)
let deadline_cancel timeout_s =
  if timeout_s <= 0.0 then Engine.Cancel.never
  else begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let calls = ref 0 in
    Engine.Cancel.of_probe
      ~reason:
        (Printf.sprintf "exceeded %gs wall-clock trial deadline" timeout_s)
      (fun () ->
        incr calls;
        !calls land 255 = 0 && Unix.gettimeofday () > deadline)
  end

(* One trial, computed from scratch: deterministic in (ctx, e) — the
   workload, machine and policy all seed from (kind, trial). *)
let compute_exp ctx e =
  (* Fleet trials keep the Multi.t visible: its per-tenant barrier
     groups must reach the machine so one tenant's rendezvous never
     blocks another's threads. *)
  let workload, barrier_groups =
    match e.workload with
    | Fleet { fl_tenants; fl_hot } ->
      let m = make_fleet ctx ~tenants:fl_tenants ~hot:fl_hot ~trial:e.trial in
      ( Workload.Chunk.Packed ((module Workload.Multi), m),
        Some (Workload.Multi.barrier_groups m) )
    | _ -> (make_workload ctx e.workload ~trial:e.trial, None)
  in
  let footprint = Workload.Chunk.packed_footprint workload in
  let capacity = max 64 (int_of_float (float_of_int footprint *. e.ratio)) in
  let cfg =
    {
      (Machine.default_config ~capacity_frames:capacity
         ~seed:(workload_seed e.workload ~trial:e.trial + 17))
      with
      Machine.swap = machine_swap e.swap;
      barrier_groups;
      fault_plan = ctx.fault_plan;
      audit_every_ns = ctx.audit_every_ns;
      obs = ctx.obs;
      prof = ctx.prof;
      cancel = deadline_cancel ctx.trial_timeout_s;
      cgroups = ctx.cgroups;
      chaos = ctx.chaos;
      damon = ctx.damon;
    }
  in
  (* Under --scale N the per-page cost factor shrinks as the footprint
     grows (see [scale_tpch]): region granularity coarsens toward the
     paper's 512-PTE leaves and the 256x seed-scale compression unwinds
     proportionally.  N = 1 leaves the machine config untouched. *)
  let cfg =
    let s = ctx.profile.scale in
    if s = 1 then cfg
    else
      {
        cfg with
        Machine.costs =
          Mem.Costs.scaled
            ~factor:(max 1 (256 / s))
            {
              Mem.Costs.default with
              Mem.Costs.region_size = min 512 (64 * s);
              spatial_scan_max = min 512 (64 * s);
            };
      }
  in
  Machine.run cfg ~policy:(Policy.Registry.create e.policy) ~workload

let journal_outcome ctx key outcome =
  match ctx.journal with
  | None -> ()
  | Some j ->
    let record =
      match outcome with
      | Done r ->
        {
          Journal.key;
          status = Journal.Trial_ok;
          reason = "";
          (* Captures are not journaled (see Journal's docs); strip them
             so the record is what a warm-started cache would hold.  The
             counter capture is the exception — it is compact and
             encodes losslessly, so it rides the record. *)
          result = Some { r with Machine.trace = None; heatmap = None };
        }
      | Failed { reason; timed_out } ->
        {
          Journal.key;
          status =
            (if timed_out then Journal.Trial_timeout else Journal.Trial_failed);
          reason;
          result = None;
        }
    in
    Journal.append j record

let try_exp ctx e =
  let key = exp_key e in
  (* Log before the cache probe: a warm-started (journal-installed)
     record is a hit that was never computed here, and the telemetry
     and profile writers replay the log. *)
  log_exp ctx e key;
  match cache_find ctx key with
  | Some o -> o
  | None ->
    let outcome =
      match compute_exp ctx e with
      | r -> Done r
      | exception Engine.Cancel.Cancelled reason ->
        Failed { reason; timed_out = true }
      | exception exn ->
        Failed { reason = Printexc.to_string exn; timed_out = false }
    in
    let kept = cache_store ctx key outcome in
    (* Journal only the outcome that won the (theoretical) publication
       race, so the segment mirrors the cache. *)
    if kept == outcome then journal_outcome ctx key kept;
    kept

let run_exp ctx e =
  match try_exp ctx e with
  | Done r -> r
  | Failed { reason; _ } ->
    failwith (Printf.sprintf "trial %s failed: %s" (exp_name e) reason)

(* Install journal records into the cache so a resumed sweep recomputes
   only what is missing.  Failure records are deliberately not
   installed: a resumed run retries them (the retry's record supersedes
   the old one at the next load).  Skipped under telemetry, because
   journal records carry no captures. *)
let warm_start ctx records =
  if Obs.config_enabled ctx.obs then begin
    prerr_endline
      "journal: telemetry enabled; skipping warm-start (journaled results \
       carry no traces)";
    0
  end
  else if ctx.prof.Obs.Prof.spans then begin
    prerr_endline
      "journal: span profiling enabled; skipping warm-start (journaled \
       results carry no spans)";
    0
  end
  else if ctx.damon <> None then begin
    prerr_endline
      "journal: region monitor enabled; skipping warm-start (journaled \
       results carry no heatmaps)";
    0
  end
  else begin
    (* Under totals-only profiling, journaled results from an unprofiled
       run carry no phase totals; skip those so the resumed sweep
       recomputes them with the profiler on. *)
    let want_profile = Obs.Prof.config_enabled ctx.prof in
    List.fold_left
      (fun n (r : Journal.record) ->
        match (r.status, r.result) with
        | Journal.Trial_ok, Some res
          when (not want_profile) || res.Machine.profile <> None ->
          ignore (cache_store ctx r.key (Done res));
          n + 1
        | _ -> n)
      0 records
  end

let failures ctx =
  List.filter_map
    (fun e ->
      match cache_find ctx (exp_key e) with
      | Some (Failed { reason; timed_out }) -> Some (e, reason, timed_out)
      | _ -> None)
    (traced_exps ctx)

(* Parallel fill of the cache.  Uncached experiments are deduplicated,
   then sharded across a transient domain pool; the results land in the
   cache, so subsequent serial reads (table printing, aggregation) see
   exactly what a serial run would have computed.  [jobs = 1] runs them
   in the calling domain. *)
let prefetch ctx exps =
  let seen = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun e ->
        let key = exp_key e in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      exps
  in
  (* Log the whole batch here, in list order, before any domain starts:
     workers then find every key already logged, so the trace order and
     the failure summary never depend on completion order.  Cache hits
     are logged too — a warm-started record was never computed in this
     process, yet must appear in the log, in the same position as in an
     uninterrupted run, for the writers that replay it. *)
  List.iter (fun e -> log_exp ctx e (exp_key e)) fresh;
  let todo = List.filter (fun e -> cache_find ctx (exp_key e) = None) fresh in
  match todo with
  | [] -> ()
  | [ e ] -> ignore (try_exp ctx e)
  | todo ->
    if ctx.jobs = 1 then List.iter (fun e -> ignore (try_exp ctx e)) todo
    else
      (* [try_exp] already converts trial exceptions into [Failed]
         cache entries; the supervised map is the backstop for anything
         raised outside it (e.g. journal I/O), so one broken task can
         never abort the rest of the batch silently mid-sweep. *)
      Engine.Pool.with_pool
        ~jobs:(min ctx.jobs (List.length todo))
        (fun pool ->
          let outcomes =
            Engine.Pool.map_supervised pool
              (fun e -> ignore (try_exp ctx e))
              (Array.of_list todo)
          in
          let todo = Array.of_list todo in
          Array.iteri
            (fun i o ->
              match o with
              | Engine.Pool.Ok () -> ()
              | Engine.Pool.Error { exn; _ } ->
                ignore
                  (cache_store ctx
                     (exp_key todo.(i))
                     (Failed
                        { reason = Printexc.to_string exn; timed_out = false })))
            outcomes)

let cell_exps ctx ~workload ~policy ~ratio ~swap =
  List.init (trials_for ctx workload) (fun trial ->
      { workload; policy; ratio; swap; trial })

let run_cell ctx ~workload ~policy ~ratio ~swap =
  let exps = cell_exps ctx ~workload ~policy ~ratio ~swap in
  prefetch ctx exps;
  List.map (run_exp ctx) exps

let try_cell ctx ~workload ~policy ~ratio ~swap =
  let exps = cell_exps ctx ~workload ~policy ~ratio ~swap in
  prefetch ctx exps;
  List.map (try_exp ctx) exps

let runtimes_s results =
  Array.of_list
    (List.map (fun r -> float_of_int r.Machine.runtime_ns /. 1e9) results)

let faults results =
  Array.of_list (List.map (fun r -> float_of_int r.Machine.major_faults) results)

let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (max 1 (Array.length arr))

let mean_runtime_s results = mean (runtimes_s results)

let mean_faults results = mean (faults results)

let pooled pick results = Array.concat (List.map pick results)

let pooled_read_latencies results = pooled (fun r -> r.Machine.read_latencies) results

let pooled_write_latencies results =
  pooled (fun r -> r.Machine.write_latencies) results

let mean_read_latency_ns results = mean (pooled_read_latencies results)

(* ------------------------------------------------------------------ *)
(* Telemetry writers: serialize the captures of every traced            *)
(* experiment, in the deterministic log order.                          *)
(* ------------------------------------------------------------------ *)

let captured ctx =
  List.filter_map
    (fun e ->
      match cache_find ctx (exp_key e) with
      | Some (Done { Machine.trace = Some cap; _ }) -> Some (e, cap)
      | _ -> None)
    (traced_exps ctx)

let cell_fields e =
  [
    ("workload", Obs.Str (workload_kind_name e.workload));
    ("policy", Obs.Str (Policy.Registry.name e.policy));
    ("ratio", Obs.Float e.ratio);
    ("swap", Obs.Str (swap_name e.swap));
    ("trial", Obs.Int e.trial);
  ]

let write_trace ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      List.iter
        (fun (e, cap) ->
          let cell = cell_fields e in
          Array.iter
            (fun (t_ns, ev) ->
              output_string oc (Obs.jsonl_line ~cell ~t_ns ev);
              output_char oc '\n';
              incr written)
            cap.Obs.events)
        (captured ctx);
      !written)

let sample_csv_header = "workload,policy,ratio,swap,trial,t_ns,metric,value"

let write_samples ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      output_string oc sample_csv_header;
      output_char oc '\n';
      List.iter
        (fun (e, cap) ->
          let prefix =
            Printf.sprintf "%s,%s,%.9g,%s,%d,"
              (workload_kind_name e.workload)
              (Policy.Registry.name e.policy)
              e.ratio (swap_name e.swap) e.trial
          in
          Array.iter
            (fun (t_ns, metrics) ->
              List.iter
                (fun (metric, v) ->
                  output_string oc prefix;
                  output_string oc
                    (Printf.sprintf "%d,%s,%.9g\n" t_ns metric v);
                  incr written)
                metrics)
            cap.Obs.samples)
        (captured ctx);
      !written)

let merged_reclaim_hists ctx =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e, cap) ->
      let pname = Policy.Registry.name e.policy in
      match Hashtbl.find_opt tbl pname with
      | Some h ->
        Hashtbl.replace tbl pname
          (Stats.Histogram.merge h cap.Obs.reclaim_hist)
      | None ->
        order := pname :: !order;
        Hashtbl.add tbl pname cap.Obs.reclaim_hist)
    (captured ctx);
  List.rev_map (fun p -> (p, Hashtbl.find tbl p)) !order

(* ------------------------------------------------------------------ *)
(* Profiling: per-cell merges of the per-trial phase captures, in the  *)
(* same deterministic log order as the telemetry writers.              *)
(* ------------------------------------------------------------------ *)

let profiled ctx =
  List.filter_map
    (fun e ->
      match cache_find ctx (exp_key e) with
      | Some (Done { Machine.profile = Some cap; _ }) -> Some (e, cap)
      | _ -> None)
    (traced_exps ctx)

let profile_cells ctx =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e, cap) ->
      (* Cell identity: the experiment minus its trial index. *)
      let cell = { e with trial = 0 } in
      let key = exp_key cell in
      match Hashtbl.find_opt tbl key with
      | Some caps -> Hashtbl.replace tbl key (cap :: caps)
      | None ->
        order := (key, cell) :: !order;
        Hashtbl.add tbl key [ cap ])
    (profiled ctx);
  List.rev_map
    (fun (key, cell) ->
      (cell, Obs.Prof.merge (List.rev (Hashtbl.find tbl key))))
    !order

let cell_label e =
  Printf.sprintf "%s/%s/%.0f%%/%s"
    (workload_kind_name e.workload)
    (Policy.Registry.name e.policy)
    (e.ratio *. 100.0) (swap_name e.swap)

(* Folded-stack lines (flamegraph.pl / speedscope input):
   cell;class;phase;...;leaf <self ns>, merged over a cell's trials. *)
let write_folded ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      List.iter
        (fun (cell, m) ->
          let label = cell_label cell in
          Array.iter
            (fun (cls, code, ns) ->
              if ns > 0 then begin
                let frames =
                  List.map Obs.Prof.phase_name (Obs.Prof.path_phases code)
                in
                output_string oc
                  (String.concat ";"
                     (label :: m.Obs.Prof.m_classes.(cls) :: frames));
                output_string oc (Printf.sprintf " %d\n" ns);
                incr written
              end)
            m.Obs.Prof.m_totals)
        (profile_cells ctx);
      !written)

(* ------------------------------------------------------------------ *)
(* Vmstat: per-cell merges of the per-trial counter captures, and the  *)
(* heatmap CSV writer — both in the deterministic log order.           *)
(* ------------------------------------------------------------------ *)

let vmstat_cells ctx =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match cache_find ctx (exp_key e) with
      | Some (Done r) -> (
        (* Cell identity: the experiment minus its trial index. *)
        let cell = { e with trial = 0 } in
        let key = exp_key cell in
        let cap = r.Machine.counters in
        match Hashtbl.find_opt tbl key with
        | Some caps -> Hashtbl.replace tbl key (cap :: caps)
        | None ->
          order := (key, cell) :: !order;
          Hashtbl.add tbl key [ cap ])
      | _ -> ())
    (traced_exps ctx);
  List.rev_map
    (fun (key, cell) ->
      (cell, Obs.Vmstat.merge (List.rev (Hashtbl.find tbl key))))
    !order

let heatmap_csv_header =
  "workload,policy,ratio,swap,trial,t_ns,asid,start_vpn,pages,accessed"

let write_heatmap ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      output_string oc heatmap_csv_header;
      output_char oc '\n';
      List.iter
        (fun e ->
          match cache_find ctx (exp_key e) with
          | Some (Done { Machine.heatmap = Some cap; _ }) ->
            let prefix =
              Printf.sprintf "%s,%s,%.9g,%s,%d,"
                (workload_kind_name e.workload)
                (Policy.Registry.name e.policy)
                e.ratio (swap_name e.swap) e.trial
            in
            Array.iter
              (fun (row : Mem.Damon.row) ->
                output_string oc prefix;
                output_string oc
                  (Printf.sprintf "%d,%d,%d,%d,%d\n" row.Mem.Damon.w_t_ns
                     row.Mem.Damon.w_asid row.Mem.Damon.w_start
                     row.Mem.Damon.w_pages row.Mem.Damon.w_accessed);
                incr written)
              cap.Mem.Damon.rows
          | _ -> ())
        (traced_exps ctx);
      !written)

(* Chrome trace-event JSON ("X" complete events, ts/dur in µs) from the
   span timelines; one trace process per profiled trial.  Requires the
   profiler's [spans] flag — trials profiled totals-only contribute
   nothing but their process metadata. *)
let write_perfetto ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      let first = ref true in
      let emit s =
        if !first then first := false else output_char oc ',';
        output_char oc '\n';
        output_string oc s
      in
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i (e, (cap : Obs.Prof.capture)) ->
          let pid = i + 1 in
          emit
            (Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
                \"args\":{\"name\":%s}}"
               pid
               (Obs.json_string
                  (Printf.sprintf "%s/t%d" (cell_label e) e.trial)));
          Array.iter
            (fun (tid, name, _cls) ->
              emit
                (Printf.sprintf
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\
                    \"tid\":%d,\"args\":{\"name\":%s}}"
                   pid tid (Obs.json_string name)))
            cap.Obs.Prof.threads;
          Array.iter
            (fun (tid, phase, t0, t1) ->
              emit
                (Printf.sprintf
                   "{\"name\":%s,\"cat\":\"phase\",\"ph\":\"X\",\
                    \"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
                   (Obs.json_string
                      (Obs.Prof.phase_name (Obs.Prof.phase_of_index phase)))
                   (float_of_int t0 /. 1e3)
                   (float_of_int (t1 - t0) /. 1e3)
                   pid tid);
              incr written)
            cap.Obs.Prof.spans)
        (profiled ctx);
      output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
      !written)
