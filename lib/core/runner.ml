type workload_kind =
  | Tpch
  | Pagerank
  | Ycsb of Workload.Ycsb.variant
  | Fleet of { fl_tenants : int; fl_hot : int }

type swap_medium = Machine.swap_kind = Ssd | Zram

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

let workload_of_name s = List.find_opt (fun w -> workload_kind_name w = s) all_workloads

let swap_name = function Ssd -> "ssd" | Zram -> "zram"

let all_swaps = [ Ssd; Zram ]

let swap_of_name s = List.find_opt (fun m -> swap_name m = s) all_swaps

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

(* ------------------------------------------------------------------ *)
(* Run context: everything that shapes a trial's result, as one        *)
(* explicit value instead of process-global mutation.                  *)
(* ------------------------------------------------------------------ *)

(* What became of one trial.  Failures are first-class cache entries:
   a raising or deadline-hit trial is computed once, rendered as an
   explicit "failed" cell, and never silently retried within a run. *)
type trial_outcome =
  | Done of Machine.stored
  | Failed of { reason : string; timed_out : bool }

(* One result key's entry.  [request] is its position in first-request
   order and the experiment that first asked for it; a journal-installed
   entry has none until it is first requested.  [outcome] is the first
   outcome published under the key. *)
type entry = {
  mutable request : (int * exp) option;
  mutable outcome : trial_outcome option;
}

(* One store per root context, shared by every context derived from it.
   Keys carry the tag of the configuration that produced the outcome,
   so derived contexts cannot alias each other's results.  Requests are
   made only from the dispatching domain ([prefetch] requests its whole
   batch before any worker starts; direct [run_exp] misses happen in the
   callers' serial read-back), so request order — and hence the trace
   files and the end-of-run failure summary — is identical for every
   [jobs] value. *)
type store = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable next_request : int;
}

type ctx = {
  profile : profile;
  fault_plan : Swapdev.Faulty_device.plan;
  audit_every_ns : int;
  jobs : int;
  obs : Obs.config;
  trial_timeout_s : float;
  journal : Journal.t option;
  cgroups : Mem.Memcg.spec option;
  chaos : Chaos.spec option;
  tag : string;  (* cache-key suffix: every input plus the capture set *)
  record_tag : string;  (* journal-record key suffix: captures reduced *)
  store : store;
}

(* Bump whenever a change alters some trial's result for the same
   inputs, or the format of journal record keys: journals written
   before it are then refused on resume. *)
let model_version = 2

let fingerprint ctx =
  let plan =
    let p = ctx.fault_plan in
    match
      List.find_opt
        (fun n -> Swapdev.Faulty_device.plan_of_name n = Some p)
        Swapdev.Faulty_device.plan_names
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

let digest_tag fields =
  String.sub
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields))))
    0 16

(* A cached result holds its captures, so they are part of its key.  A
   journal record holds only the captures {!Obs.kept} names: its tag is
   the context's under that set, so a context that wants more never
   finds it. *)
let with_tags ctx =
  let fp = fingerprint ctx in
  {
    ctx with
    tag = digest_tag (fp @ Obs.config_key ctx.obs);
    record_tag = digest_tag (fp @ Obs.config_key (Obs.kept ctx.obs));
  }

let make_ctx ?(profile = default_profile)
    ?(fault_plan = Swapdev.Faulty_device.none) ?(audit_every_ns = 0) ?(jobs = 1)
    ?(obs = Obs.off) ?(trial_timeout_s = 0.0) ?journal ?cgroups ?chaos () =
  with_tags
    {
      profile;
      fault_plan;
      audit_every_ns = max 0 audit_every_ns;
      jobs = max 1 jobs;
      obs;
      trial_timeout_s = (if trial_timeout_s > 0.0 then trial_timeout_s else 0.0);
      journal;
      cgroups;
      chaos;
      tag = "";
      record_tag = "";
      store =
        { lock = Mutex.create (); entries = Hashtbl.create 64; next_request = 0 };
    }

let derive ?obs ?cgroups ?chaos ctx =
  with_tags
    {
      ctx with
      obs = Option.value obs ~default:ctx.obs;
      cgroups = Option.value cgroups ~default:ctx.cgroups;
      chaos = Option.value chaos ~default:ctx.chaos;
    }

let profile ctx = ctx.profile

let fault_plan ctx = ctx.fault_plan

let audit_every_ns ctx = ctx.audit_every_ns

let jobs ctx = ctx.jobs

let obs ctx = ctx.obs

let cgroups ctx = ctx.cgroups

let cache_key ctx e = exp_key e ^ "@" ^ ctx.tag

let record_key ctx e = exp_key e ^ "@" ^ ctx.record_tag

let locked ctx f = Mutex.protect ctx.store.lock (fun () -> f ctx.store)

let entry s key =
  match Hashtbl.find_opt s.entries key with
  | Some en -> en
  | None ->
    let en = { request = None; outcome = None } in
    Hashtbl.add s.entries key en;
    en

(* Request [e] under [key]: give the entry its request position if it
   has none, and return whether the key was new to the store and its
   outcome so far. *)
let request ctx e key =
  locked ctx (fun s ->
      let fresh = not (Hashtbl.mem s.entries key) in
      let en = entry s key in
      if Option.is_none en.request then begin
        en.request <- Some (s.next_request, e);
        s.next_request <- s.next_request + 1
      end;
      (fresh, en.outcome))

(* First outcome wins, so concurrent duplicate computations (which are
   deterministic and identical anyway) keep physical equality stable for
   later lookups. *)
let publish ctx key outcome =
  locked ctx (fun s ->
      let en = entry s key in
      match en.outcome with
      | Some kept -> kept
      | None ->
        en.outcome <- Some outcome;
        outcome)

let cached_results ctx =
  locked ctx (fun s ->
      Hashtbl.fold
        (fun _ en n -> if Option.is_some en.outcome then n + 1 else n)
        s.entries 0)

(* Every requested experiment with its key and outcome, in request
   order.  Shared by the failure summary and every capture reader. *)
let outcomes ctx =
  locked ctx (fun s ->
      Hashtbl.fold
        (fun key en acc ->
          match (en.request, en.outcome) with
          | Some (seq, e), Some o -> (seq, (e, key, o)) :: acc
          | _ -> acc)
        s.entries [])
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

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

let capacity_for ~footprint ~ratio =
  max 64 (int_of_float (float_of_int footprint *. ratio))

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

(* The machine configuration every trial of [ctx] shares.  Under
   --scale N the per-page cost factor shrinks as the footprint grows
   (see [scale_tpch]): region granularity coarsens toward the paper's
   512-PTE leaves and the 256x seed-scale compression unwinds
   proportionally ({!Mem.Costs.experiment}).  Captures, the trial
   deadline, the swap medium and barrier groups are per experiment and
   left at their defaults. *)
let machine_config ctx ~capacity_frames ~seed =
  {
    (Machine.default_config ~capacity_frames ~seed) with
    Machine.costs = Mem.Costs.experiment ~scale:ctx.profile.scale;
    fault_plan = ctx.fault_plan;
    audit_every_ns = ctx.audit_every_ns;
    cgroups = ctx.cgroups;
    chaos = ctx.chaos;
  }

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
  let capacity =
    capacity_for ~footprint:(Workload.Chunk.packed_footprint workload)
      ~ratio:e.ratio
  in
  let cfg =
    {
      (machine_config ctx ~capacity_frames:capacity
         ~seed:(workload_seed e.workload ~trial:e.trial + 17))
      with
      Machine.swap = e.swap;
      barrier_groups;
      obs = ctx.obs;
      cancel = deadline_cancel ctx.trial_timeout_s;
    }
  in
  let r = Machine.run cfg ~policy:(Policy.Registry.create e.policy) ~workload in
  (* The one conversion: the store keeps runs, and the sealed arrays die
     with this frame. *)
  {
    r with
    Machine.read_latencies = Structures.Latencies.of_sorted r.read_latencies;
    write_latencies = Structures.Latencies.of_sorted r.write_latencies;
  }

let journal_outcome ctx e outcome =
  let key = record_key ctx e in
  let record =
    match outcome with
    | Done r ->
      { Journal.key; status = Journal.Trial_ok; reason = ""; result = Some r }
    | Failed { reason; timed_out } ->
      {
        Journal.key;
        status =
          (if timed_out then Journal.Trial_timeout else Journal.Trial_failed);
        reason;
        result = None;
      }
  in
  Option.iter (fun j -> Journal.append j record) ctx.journal

let try_exp ctx e =
  let key = cache_key ctx e in
  (* Request before computing: a warm-started (journal-installed) record
     is a hit that was never computed here, and the telemetry and
     profile writers read request order. *)
  match request ctx e key with
  | _, Some o -> o
  | _, None ->
    let outcome =
      match compute_exp ctx e with
      | r -> Done r
      | exception Engine.Cancel.Cancelled reason ->
        Failed { reason; timed_out = true }
      | exception exn ->
        Failed { reason = Printexc.to_string exn; timed_out = false }
    in
    let kept = publish ctx key outcome in
    (* Journal only the outcome that won the (theoretical) publication
       race, so the segment mirrors the store. *)
    if kept == outcome then journal_outcome ctx e kept;
    kept

let run_exp ctx e =
  match try_exp ctx e with
  | Done r -> r
  | Failed { reason; _ } ->
    failwith (Printf.sprintf "trial %s failed: %s" (exp_name e) reason)

(* Install journal records into the store, each under its own key, so
   a resumed sweep recomputes only what is missing.  A record's key
   names the configuration and reduced capture set that produced it, so
   only a context asking for exactly that finds it.  Failure records are
   deliberately not installed: a resumed run retries them (the retry's
   record supersedes the old one at the next load). *)
let warm_start ctx records =
  List.fold_left
    (fun n (r : Journal.record) ->
      match (r.status, r.result) with
      | Journal.Trial_ok, Some res ->
        ignore (publish ctx r.key (Done res));
        n + 1
      | _ -> n)
    0 records

let failures ctx =
  List.filter_map
    (function
      | e, _, Failed { reason; timed_out } -> Some (e, reason, timed_out)
      | _, _, Done _ -> None)
    (outcomes ctx)

(* Parallel fill of the cache.  Uncached experiments are deduplicated,
   then sharded across a transient domain pool; the results land in the
   cache, so subsequent serial reads (table printing, aggregation) see
   exactly what a serial run would have computed.  [jobs = 1] runs them
   in the calling domain. *)
let prefetch ctx exps =
  (* Request the whole batch here, in list order, before any domain
     starts: workers then find every entry already requested, so the
     trace order and the failure summary never depend on completion
     order.  Hits are requested too — a warm-started record was never
     computed in this process, yet must take the same position as in an
     uninterrupted run.  Only a key new to the store is computed, once:
     a repeat in the batch finds the entry its first request made. *)
  let todo =
    List.filter (fun e -> fst (request ctx e (cache_key ctx e))) exps
  in
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
          let todo = Array.of_list todo in
          let outcomes =
            Engine.Pool.map_supervised pool (fun e -> ignore (try_exp ctx e)) todo
          in
          Array.iteri
            (fun i -> function
              | Engine.Pool.Ok () -> ()
              | Engine.Pool.Error { exn; _ } ->
                ignore
                  (publish ctx
                     (cache_key ctx todo.(i))
                     (Failed
                        { reason = Printexc.to_string exn; timed_out = false })))
            outcomes)

let cell_exps ctx ~workload ~policy ~ratio ~swap =
  List.init (trials_for ctx workload) (fun trial ->
      { workload; policy; ratio; swap; trial })

let cell run ctx ~workload ~policy ~ratio ~swap =
  let exps = cell_exps ctx ~workload ~policy ~ratio ~swap in
  prefetch ctx exps;
  List.map (run ctx) exps

let run_cell = cell run_exp

let try_cell = cell try_exp

let runtimes_s results =
  Array.of_list
    (List.map (fun r -> float_of_int r.Machine.runtime_ns /. 1e9) results)

let faults results =
  Array.of_list (List.map (fun r -> float_of_int r.Machine.major_faults) results)

let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (max 1 (Array.length arr))

let mean_runtime_s results = mean (runtimes_s results)

let mean_faults results = mean (faults results)

let pooled_read_latencies (results : Machine.stored list) =
  Structures.Latencies.merge (List.map (fun r -> r.Machine.read_latencies) results)

let pooled_write_latencies (results : Machine.stored list) =
  Structures.Latencies.merge (List.map (fun r -> r.Machine.write_latencies) results)

(* ------------------------------------------------------------------ *)
(* Telemetry writers: serialize the captures of every traced            *)
(* experiment, in the deterministic request order.                      *)
(* ------------------------------------------------------------------ *)

(* The requested experiments whose result carries the capture [pick]
   selects, with their keys, in request order. *)
let with_capture pick ctx =
  List.filter_map
    (function
      | e, key, Done r -> Option.map (fun cap -> (e, key, cap)) (pick r)
      | _, _, Failed _ -> None)
    (outcomes ctx)

let captured = with_capture (fun r -> r.Machine.trace)

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
        (fun (e, _, cap) ->
          let cell = cell_fields e in
          Array.iter
            (fun (t_ns, ev) ->
              output_string oc (Obs.jsonl_line ~cell ~t_ns ev);
              output_char oc '\n';
              incr written)
            cap.Obs.events)
        (captured ctx);
      !written)

(* The cell columns every per-trial CSV row starts with. *)
let csv_prefix e =
  Printf.sprintf "%s,%s,%.9g,%s,%d,"
    (workload_kind_name e.workload)
    (Policy.Registry.name e.policy)
    e.ratio (swap_name e.swap) e.trial

let sample_csv_header = "workload,policy,ratio,swap,trial,t_ns,metric,value"

let write_samples ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      output_string oc sample_csv_header;
      output_char oc '\n';
      List.iter
        (fun (e, _, cap) ->
          let prefix = csv_prefix e in
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

(* [items] grouped by [key]: groups in first-appearance order, items in
   list order within each. *)
let group_by key items =
  let tbl = Hashtbl.create 8 in
  let firsts =
    List.filter
      (fun x ->
        let k = key x in
        let seen = Hashtbl.find_opt tbl k in
        Hashtbl.replace tbl k (x :: Option.value seen ~default:[]);
        Option.is_none seen)
      items
  in
  List.map (fun x -> List.rev (Hashtbl.find tbl (key x))) firsts

let merged_reclaim_hists ctx =
  List.map
    (fun group ->
      let hists = List.map (fun (_, _, cap) -> cap.Obs.reclaim_hist) group in
      let e, _, _ = List.hd group in
      ( Policy.Registry.name e.policy,
        List.fold_left Stats.Histogram.merge (List.hd hists) (List.tl hists) ))
    (group_by (fun (e, _, _) -> Policy.Registry.name e.policy) (captured ctx))

(* ------------------------------------------------------------------ *)
(* Profiling: per-cell merges of the per-trial phase captures, in the  *)
(* same deterministic request order as the telemetry writers.          *)
(* ------------------------------------------------------------------ *)

let profiled = with_capture (fun r -> r.Machine.profile)

(* Per-cell merge of per-trial captures, cells in first-appearance
   order, each merged in trial order.  Cell identity is the experiment
   minus its trial index, under one configuration tag: derived contexts
   sharing the store never pool their trials. *)
let by_cell merge picked =
  let cell_of (e, key, _) =
    let at = String.rindex key '@' in
    (exp_key { e with trial = 0 }, String.sub key at (String.length key - at))
  in
  List.map
    (fun group ->
      let e, _, _ = List.hd group in
      ({ e with trial = 0 }, merge (List.map (fun (_, _, cap) -> cap) group)))
    (group_by cell_of picked)

let profile_cells ctx = by_cell Obs.Prof.merge (profiled ctx)

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
(* heatmap CSV writer — both in the deterministic request order.       *)
(* ------------------------------------------------------------------ *)

let vmstat_cells ctx =
  by_cell Obs.Vmstat.merge
    (with_capture (fun r -> Some r.Machine.counters) ctx)

let heatmap_csv_header =
  "workload,policy,ratio,swap,trial,t_ns,asid,start_vpn,pages,accessed"

let write_heatmap ctx ~path =
  Atomic_io.replace ~path (fun oc ->
      let written = ref 0 in
      output_string oc heatmap_csv_header;
      output_char oc '\n';
      List.iter
        (fun (e, _, cap) ->
          let prefix = csv_prefix e in
          Array.iter
            (fun (row : Mem.Damon.row) ->
              output_string oc prefix;
              (* The asid column is the constant 0. *)
              output_string oc
                (Printf.sprintf "%d,0,%d,%d,%d\n" row.Mem.Damon.w_t_ns
                   row.Mem.Damon.w_start row.Mem.Damon.w_pages
                   row.Mem.Damon.w_accessed);
              incr written)
            cap.Mem.Damon.rows)
        (with_capture (fun r -> r.Machine.heatmap) ctx);
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
        (fun i (e, _, (cap : Obs.Prof.capture)) ->
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
