(** Experiment configurations and the cached, parallel trial runner.

    An {!exp} names one cell of the paper's grid: workload x policy x
    capacity ratio x swap medium x trial index.  Workload seeds depend
    only on (workload, trial), so different policies face identical
    workload instances within a trial — the simulator's analogue of the
    paper's paired comparisons — while each fresh trial is a fresh
    "reboot".

    Every run happens under an explicit {!ctx}: the scaling profile,
    fault-injection plan, invariant-audit cadence and parallelism are
    fields of a value threaded through the drivers, not process-global
    state.  Results live in a store (one keyed table of entries under
    one mutex) that a root context shares with every context {!derive}d
    from it.  A result
    is keyed by its {!exp_key} plus a tag of everything else that
    produced it: the {!fingerprint} and the capture set (trace, sample
    cadence, profiler mode, region monitor).  Figures that share cells
    (1 and 2, 4 and 5, 9-11) do not recompute them, and no context is
    ever served a result computed under other inputs.

    The store keeps each trial as a {!Machine.stored}: its request
    latencies become {!Structures.Latencies.runs} once, when the trial
    completes, and every reader (the figures, the per-cgroup tables,
    the journal, {!pooled_read_latencies}) reads the runs as they are,
    so no per-request array outlives its trial.

    {b Parallelism and determinism.}  Trials are embarrassingly
    parallel: each owns its seeded RNG, workload instance and simulated
    machine.  {!prefetch} shards uncached trials across a domain pool
    ({!Engine.Pool}) and stores the results; the drivers then read,
    aggregate and print serially from the cache, so output is
    bit-identical for every [jobs] value. *)

type workload_kind =
  | Tpch
  | Pagerank
  | Ycsb of Workload.Ycsb.variant
  | Fleet of { fl_tenants : int; fl_hot : int }
      (** [fl_tenants] YCSB tenants sharing one machine via
          {!Workload.Multi} (2 threads each); tenant [fl_hot] is a hot
          runaway (zipf 1.1, double the requests), the rest are lukewarm
          (zipf 0.8).  The containment workload of [repro fleet]. *)

type swap_medium = Machine.swap_kind = Ssd | Zram

type exp = {
  workload : workload_kind;
  policy : Policy.Registry.spec;
  ratio : float; (** memory capacity / workload footprint, e.g. 0.5 *)
  swap : swap_medium;
  trial : int;
}

val workload_kind_name : workload_kind -> string

val all_workloads : workload_kind list
(** The paper's five, in figure order: TPC-H, PageRank, YCSB A/B/C. *)

val workload_of_name : string -> workload_kind option
(** The inverse of {!workload_kind_name} over {!all_workloads}. *)

val swap_name : swap_medium -> string

val all_swaps : swap_medium list

val swap_of_name : string -> swap_medium option
(** The inverse of {!swap_name}. *)

val exp_name : exp -> string
(** Human-readable cell name (display only; not injective for
    parameterized policies — see {!exp_key}). *)

val exp_key : exp -> string
(** Stable, injective cache key: encodes every policy parameter via
    {!Policy.Registry.cache_key}, so distinct [Mglru_custom] configs
    never alias, and no structural hashing of closures can occur. *)

(** Scaling profile: trials per TPC-H/PageRank cell, trials per YCSB
    cell, whether workloads are shrunk ~4x for quick runs, and the
    footprint multiplier. *)
type profile = {
  trials : int;
  ycsb_trials : int;
  fast : bool;
  scale : int;
      (** [--scale N]: multiply every workload's page-count dimensions
          by [N] and shrink simulated per-page costs by the same factor
          (the default experiments run at 1/256 of the paper's page
          counts; [N = 256] reaches the native 3-4M-page footprints).
          [1] is byte-identical to the historical profile.  Like
          [fast], this is ctx-level and part of the {!fingerprint}, so
          results at one scale are never served at another. *)
}

val default_profile : profile
(** The paper's trial counts: 25 trials, 2 YCSB trials, full-size
    workloads, scale 1. *)

(** {1 Run contexts} *)

type ctx
(** An immutable run context: profile, fault plan, audit cadence,
    parallelism, per-trial deadline and optional result journal, plus
    the result store it shares with the contexts derived from it. *)

(** What became of one trial.  Failures are first-class: a raising or
    deadline-hit trial is cached and journaled as [Failed] and rendered
    as an explicit "failed" cell, while the other trials of the sweep
    run to completion. *)
type trial_outcome =
  | Done of Machine.stored
  | Failed of { reason : string; timed_out : bool }

val make_ctx :
  ?profile:profile ->
  ?fault_plan:Swapdev.Faulty_device.plan ->
  ?audit_every_ns:int ->
  ?jobs:int ->
  ?obs:Obs.config ->
  ?trial_timeout_s:float ->
  ?journal:Journal.t ->
  ?cgroups:Mem.Memcg.spec ->
  ?chaos:Chaos.spec ->
  unit ->
  ctx
(** Defaults: {!default_profile}, no fault injection, end-of-run
    audits only, [jobs = 1] (serial), every capture off ({!Obs.off}
    keeps runs bit-identical to a build without the telemetry layers),
    no per-trial deadline, no journal.  [jobs] is clamped to at least
    1; [audit_every_ns] to at least 0; [trial_timeout_s <= 0] means no
    deadline.

    [obs] is the capture set every trial of this context records: trace
    events, machine-state samples, the profiler mode and the region
    monitor (whose rows land in [result.heatmap]).

    With a [journal], every freshly computed trial outcome — success or
    failure — is appended (checksummed, fsynced) the moment it
    completes; cache hits, including warm-started records, are not
    re-journaled.

    [cgroups] installs a memory-cgroup spec into every machine this
    context runs, and [chaos] a runtime-transient schedule (see
    {!Chaos}; omitting it schedules nothing, byte-identical to builds
    without the chaos layer).  The context gets a fresh, empty result
    store. *)

val profile : ctx -> profile

val fault_plan : ctx -> Swapdev.Faulty_device.plan

val audit_every_ns : ctx -> int

val jobs : ctx -> int

val obs : ctx -> Obs.config

val cgroups : ctx -> Mem.Memcg.spec option

val derive :
  ?obs:Obs.config ->
  ?cgroups:Mem.Memcg.spec option ->
  ?chaos:Chaos.spec option ->
  ctx ->
  ctx
(** [ctx] with the given fields replaced ([obs] is the whole capture
    set; [Some None] strips a spec), sharing [ctx]'s result store and journal:
    its outcomes reach {!failures} and the writers called on [ctx].
    Results are keyed by their inputs, so two contexts share a result
    only when their inputs and capture sets are identical. *)

val fingerprint : ctx -> (string * string) list
(** Every ctx-level input that changes a trial's result, as named
    canonical strings: a model-version constant (bumped whenever results
    change for the same inputs), [fast], [scale], the fault plan,
    [audit_every_ns], and the cgroup and chaos specs.  Journals carry it
    in their header ({!Journal.open_}), and every result key carries a
    digest of it. *)

val record_key : ctx -> exp -> string
(** The key of [ctx]'s journal record for [e]: {!exp_key} plus a tag of
    the {!fingerprint} and of [Obs.kept (obs ctx)], the captures a
    record keeps (counters always, phase totals when profiling; no
    traces, samples, spans or heatmaps).  Contexts whose capture sets
    keep the same set share record keys. *)

val cached_results : ctx -> int
(** Number of trial outcomes currently memoized in this context's store
    (shared with every context derived from the same root). *)

val warm_start : ctx -> Journal.record list -> int
(** Install every successful record of a loaded journal into the store
    under its own key, returning how many were installed.  Failure
    records are skipped (a resumed run retries them).  A context whose
    inputs or capture set differ from a record's never finds it.  Call
    once, before running anything, on a fresh context whose
    {!fingerprint} matched the journal's header. *)

(** {1 Running trials} *)

val trials_for : ctx -> workload_kind -> int

val make_workload : ctx -> workload_kind -> trial:int -> Workload.Chunk.packed

val capacity_for : footprint:int -> ratio:float -> int
(** Memory frames of a cell's machine: [ratio] of the workload's
    [footprint] pages, at least 64.  Belady's bound and the tier study
    size against the same formula. *)

val machine_config : ctx -> capacity_frames:int -> seed:int -> Machine.config
(** The machine every trial of [ctx] runs on: {!Machine.default_config}
    with the context's scaled costs ([--scale]), fault plan, audit
    cadence, cgroups and chaos schedule.  Captures stay off and there is
    no deadline; {!run_exp} adds those, the swap medium and barrier
    groups per experiment. *)

val run_exp : ctx -> exp -> Machine.stored
(** Run (or fetch from this context's cache) one trial.  Raises
    [Failure] if the trial's outcome is [Failed] — use {!try_exp} where
    failures must not abort the caller. *)

val try_exp : ctx -> exp -> trial_outcome
(** Like {!run_exp}, but a raising or timed-out trial yields [Failed]
    instead of raising: the failure is cached (never retried within this
    context) and journaled like any other outcome. *)

val cell_exps :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> exp list
(** The trials of one grid cell under [ctx]'s profile, in trial order. *)

val prefetch : ctx -> exp list -> unit
(** Compute every uncached experiment in the list (deduplicated) across
    [jobs ctx] domains and memoize the results.  With [jobs = 1] this
    degenerates to a serial loop in the calling domain.  Drivers call
    this with a figure's whole grid before printing; the serial
    read-back then hits only the cache, which is how parallel runs stay
    bit-identical to serial ones. *)

val run_cell :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> Machine.stored list
(** All trials of one grid cell, prefetched in parallel per the ctx.
    Raises on the first failed trial, like {!run_exp}. *)

val try_cell :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> trial_outcome list
(** Failure-tolerant {!run_cell}: one {!trial_outcome} per trial, in
    trial order. *)

val failures : ctx -> (exp * string * bool) list
(** Every failed trial this context's store has seen, derived contexts'
    included — [(exp, reason, timed_out)] — in deterministic
    first-request order, the same for every [jobs] value.  Empty after a
    clean sweep. *)

(** {1 Aggregation helpers} *)

val runtimes_s : _ Machine.trial list -> float array

val faults : _ Machine.trial list -> float array
(** Major (demand) fault counts. *)

val mean_runtime_s : _ Machine.trial list -> float

val mean_faults : _ Machine.trial list -> float

val pooled_read_latencies : Machine.stored list -> Structures.Latencies.runs
(** Every trial's read latencies merged into one set of runs. *)

val pooled_write_latencies : Machine.stored list -> Structures.Latencies.runs

(** {1 Telemetry}

    When the context's capture set enables tracing or sampling, every
    computed trial's capture is kept (attached to its cached result).
    Each result key's store entry takes a request position when the key
    is first requested; a journal-installed entry takes its position
    then, not when it is installed.  Requests are made only from the
    dispatching domain — {!prefetch} requests its whole batch in list
    order before any worker starts, and direct {!run_exp} misses occur
    in the drivers' serial read-back — so the files these writers
    produce are byte-identical for every [jobs] value.  The writers and
    {!failures} read every entry of the store in request order, so
    called on a root context they cover its derived contexts too. *)

val write_trace : ctx -> path:string -> int
(** Write every captured event as JSON Lines (one flat object per event:
    workload/policy/ratio/swap/trial, [t_ns], [kind], payload); returns
    the number of events written.  Like every writer, goes through
    {!Atomic_io.replace}: [path] is replaced atomically or not at all. *)

val write_samples : ctx -> path:string -> int
(** Write every machine-state sample as long-format CSV
    ([workload,policy,ratio,swap,trial,t_ns,metric,value]); returns the
    number of data rows written.  Atomic like {!write_trace}. *)

val merged_reclaim_hists : ctx -> (string * Stats.Histogram.t) list
(** Per-policy direct-reclaim latency histograms, merged across every
    traced trial, in first-appearance order. *)

(** {1 Profiling}

    When the context's capture set turns the profiler on, every computed
    trial carries a phase-attribution capture.  Like the telemetry
    writers, everything below reads the store in request order,
    so outputs are byte-identical for every [jobs] value. *)

val profile_cells : ctx -> (exp * Obs.Prof.merged) list
(** Per-cell phase totals: captures grouped by grid cell and
    configuration tag (the [exp] returned has [trial = 0]) and merged
    across trials in trial order, cells in first-appearance order. *)

val write_folded : ctx -> path:string -> int
(** Write merged per-cell phase totals as folded stacks
    ([cell;class;phase;...;leaf <self ns>] per line — flamegraph.pl /
    speedscope input); returns the number of lines.  Atomic like
    {!write_trace}. *)

val write_perfetto : ctx -> path:string -> int
(** Write the per-trial span timelines as Chrome trace-event JSON
    (loadable in Perfetto / chrome://tracing): one trace process per
    profiled trial, thread-name metadata, and one "X" event per span.
    Returns the number of span events.  Requires the profiler's [Spans]
    mode to record anything.  Atomic like {!write_trace}. *)

(** {1 Vmstat and heatmaps}

    Like the profiling readers: everything reads the store in request
    order, so outputs are byte-identical for every [jobs] value. *)

val vmstat_cells : ctx -> (exp * Obs.Vmstat.capture) list
(** Per-cell counter totals: captures grouped like {!profile_cells} and
    summed across trials, cells in first-appearance order. *)

val heatmap_csv_header : string
(** [workload,policy,ratio,swap,trial,t_ns,asid,start_vpn,pages,accessed].
    A machine has one address space, so [asid] is always 0; the column
    keeps the layout existing readers parse. *)

val write_heatmap : ctx -> path:string -> int
(** Write every cached heatmap capture as CSV rows under
    {!heatmap_csv_header} (one line per region snapshot, trials in
    request order, rows in tick order); returns the number of
    data rows.  Atomic like {!write_trace}. *)
