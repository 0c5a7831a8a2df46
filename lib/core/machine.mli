(** The simulated machine: one trial of a workload under a policy.

    Mirrors the paper's testbed (§IV): application threads share a
    6-core/12-thread CPU with the policy's kernel threads; physical
    memory is capped at a fraction of the workload footprint; demand
    faults read pages from the swap device, with sequential readahead
    clustering and a swap-cache that lets clean pages be evicted without
    a writeback.  Direct reclaim — entered when the free list is empty —
    runs the policy synchronously and charges its CPU time and any
    synchronous writeback stalls to the faulting thread, which is where
    the tail-latency differences between policies come from (§VI-A).

    The machine also survives storage faults (see {!Swapdev.Faulty_device}):
    transient errors are retried with backoff, permanent read errors
    poison the page (the thread continues on zero-fill), permanent write
    errors pin the page in memory, and when reclaim can no longer free
    anything an OOM killer terminates the fattest thread instead of
    aborting the trial.  {!Invariants.audit} cross-checks machine state
    after every run and optionally on a cadence.

    Every request's latency is kept exactly: {!run} returns each
    latency class as a sealed array with one element per request
    ({!result}), and what outlives the run keeps it as runs of distinct
    values ({!stored}). *)

type swap_kind =
  | Ssd   (** ~7.5 ms per 4 KB operation ({!Swapdev.Ssd.default_config}) *)
  | Zram  (** 20 µs reads / 35 µs writes, CPU-coupled
              ({!Swapdev.Zram.default_config}) *)

(** The testbed is fixed: 12 hardware threads, direct reclaim in
    batches of 8 pages, 20 ns of compute per resident touch, 1 µs per
    zero-fill fault, a 100 µs base for the transient-I/O retry backoff
    (and the memcg throttle), the thread driver's 32-page segments and
    a 50,000 s simulated-time safety stop.  The fields below are the
    values callers vary. *)
type config = {
  capacity_frames : int;
  swap : swap_kind;
  costs : Mem.Costs.t;
  readahead : int;           (** swap-in cluster size; 0 disables *)
  barrier_groups : int array option;
      (** thread -> rendezvous group; default: all threads in group 0 *)
  kthread_jitter_ns : int;
      (** mean run-queue latency added between kernel-thread steps,
          scaled by CPU load — the OS scheduling noise the paper blames
          for scan-timing variance (§VI-A); 0 disables *)
  seed : int;
  fault_plan : Swapdev.Faulty_device.plan;
      (** swap I/O fault injection; {!Swapdev.Faulty_device.none} keeps
          runs bit-identical to a build without the fault layer *)
  io_max_retries : int;      (** per-op retry budget on transient errors *)
  audit_every_ns : int;
      (** run {!Invariants.audit} every this many simulated ns; 0 =
          end-of-run only *)
  obs : Obs.config;
      (** the capture set, every telemetry channel in one value: trace
          events and periodic machine-state samples into a per-trial
          sink ([result.trace]); the simulated-time CPU profiler, which
          attributes every nanosecond charged through
          [Engine.Cpu.charge] plus modeled waits (swap, writeback,
          barriers) to a phase ([result.profile]); and the DAMON-style
          region access monitor (see {!Mem.Damon}), a recurring tick
          that reads — never clears — accessed bits
          ([result.heatmap]).  Every channel only observes: none draws
          randomness, charges CPU or changes what the simulation
          schedules, so results equal an unobserved run's, and
          {!Obs.off} keeps runs bit-identical to a build without the
          layers *)
  cancel : Engine.Cancel.t;
      (** cooperative cancellation, checked between simulation events;
          {!Engine.Cancel.never} (the default) never fires.  A firing
          token aborts the trial with {!Engine.Cancel.Cancelled} after
          the in-flight event completes, so machine state is never torn
          mid-event — this is how the runner enforces per-trial
          wall-clock deadlines *)
  cgroups : Mem.Memcg.spec option;
      (** memory cgroups: per-thread-group [memory.low]/[high]/[max]
          limits, PSI accounting and the proactive-reclaim probe (see
          {!Mem.Memcg} and the README's [--cgroups] grammar).  [None]
          (the default) is a single global pool — byte-identical
          behaviour to builds without the controller *)
  chaos : Chaos.spec option;
      (** deterministic runtime-transient injection: memory hotplug,
          swap-device degradation windows, cgroup limit churn, workload
          burst storms (see {!Chaos} and the README's [--chaos]
          grammar).  Every injection fires at a compiled simulated time
          and is followed by a forced {!Invariants.audit}.  [None] (the
          default) schedules nothing and draws no randomness —
          byte-identical behaviour to builds without the chaos layer *)
}

val default_config : capacity_frames:int -> seed:int -> config
(** SSD swap, the experiment-scaled cost model
    ({!Mem.Costs.experiment} at scale 1: 64-PTE page-table regions; see
    DESIGN.md on footprint scaling).  Fault injection disabled. *)

(** One trial's metrics.  ['lat] is the form of its request latencies:
    {!run} returns them as sealed arrays ({!result}), and everything
    that keeps a trial past the run (the runner's store, the journal,
    every table) holds them as runs ({!stored}). *)
type 'lat trial = {
  runtime_ns : int;
  major_faults : int;
      (** demand faults that required device reads; [counters]'
          [pgmajfault] *)
  minor_faults : int;
      (** zero-fill first touches; [counters]' [minor_faults] *)
  read_latencies : 'lat;  (** per-request ns, latency class 0 *)
  write_latencies : 'lat; (** latency class 1 *)
  per_thread_finish : int array;
  cpu_busy_ns : int;
  policy_stats : (string * int) list;
  policy_name : string;
  resident_at_end : int;
  counters : Obs.Vmstat.capture;
      (** every event counter of the trial — the kernel vmstat rows
          (swap traffic, OOM kills, ...) and the simulator's own
          (reclaim, I/O recovery, fault injection, audit violations;
          0 violations expected) — plus the refault-distance
          histogram; read one with {!count} *)
  memcg : Mem.Memcg.summary option;
      (** per-cgroup usage, limits, throttle/OOM counters, PSI totals
          and per-tenant request latencies; [None] without [--cgroups] *)
  chaos : Chaos.summary option;
      (** injection tallies (events applied, frames offlined/onlined,
          pages migrated/evicted off offlining frames, limit rewrites,
          device phases, stalled threads); [None] without [--chaos] *)
  trace : Obs.capture option;
      (** everything the trial's event/sample sink recorded; [None]
          when [config.obs] neither traced nor sampled *)
  profile : Obs.Prof.capture option;
      (** per-phase CPU/wait totals (and, under [Spans], the span
          timeline); [None] when [config.obs.prof] was [Off] *)
  heatmap : Mem.Damon.capture option;
      (** the region monitor's aggregation rows in tick order; [None]
          when [config.obs.damon] was [None] *)
}

type result = int array trial
(** What {!run} returns: each latency class as a sealed
    {!Structures.Latencies} array, ascending, one element per request. *)

type stored = Structures.Latencies.runs trial
(** A kept trial: each latency class as {!Structures.Latencies.runs},
    its distinct values with their counts.  The runner builds it once,
    when the trial completes, and never expands it again. *)

val count : 'lat trial -> int -> int
(** [count r i]: counter [i] (an {!Obs.Vmstat} index) of [r.counters]. *)

val run :
  config ->
  policy:(Policy.Policy_intf.env -> Policy.Policy_intf.packed) ->
  workload:Workload.Chunk.packed ->
  result
(** Execute one trial to completion (every workload thread [Finished] or
    OOM-killed) and collect the metrics the paper reports.  A workload
    with more than [Page_state.max_tid + 1] (65 535) threads is refused
    with [Invalid_argument] before anything runs. *)
