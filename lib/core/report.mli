(** Plain-text table rendering for the figure harness. *)

val section : string -> unit
(** Print a figure banner. *)

val subsection : string -> unit

val table : header:string list -> string list list -> unit
(** Fixed-width aligned table with a separator under the header. *)

val failed_marker : string
(** ["failed"] — how every formatter renders NaN, the sentinel that
    failed trials inject into aggregates.  Clean runs never produce NaN,
    so their rendering is unchanged. *)

val f2 : float -> string
(** Two-decimal formatting. *)

val f3 : float -> string

val fnorm : float -> string
(** Normalized-value formatting ("1.00x"). *)

val fsec : float -> string
(** Seconds with adaptive precision. *)

val fcount : float -> string
(** Large counts with thousands separators. *)

val fns : float -> string
(** Nanoseconds rendered with an adaptive unit (ns/us/ms/s). *)

val note : string -> unit
(** Indented free-form commentary line. *)

val trace_summary : path:string -> unit
(** Parse a JSONL trace (as written by {!Runner.write_trace}) and print
    per-cell event-kind counts plus latency quantiles rebuilt from the
    [reclaim] events (direct-reclaim episodes) and the
    [swap_read]/[swap_write] events (per-operation device latency).
    @raise Failure on the first malformed record, citing file, line
    number and byte offset — the CI smoke step relies on this to
    validate traces.

    Traces from cgroup-enabled runs additionally get a "cgroups"
    subsection: per (cell, cgroup) OOM kills, throttle episodes with
    total throttled simulated time, targeted-reclaim episodes and pages
    freed, and PSI some/full averaged over the observed windows —
    exercising (and validating) the [throttle] / [cgroup_reclaim] /
    [cgroup_oom] / [psi] event schemas.

    Traces containing [workingset_refault] events additionally get a
    "workingset refaults" subsection: per-cell shadow-entry hits and
    misses, plus activated/restored verdicts among the hits. *)

val vmstat_table : (string * Obs.Vmstat.capture) list -> unit
(** One labelled column per capture, the kernel counters (the first
    {!Obs.Vmstat.kernel_counters} indices) as rows.
    With exactly two columns a [delta] column (second minus first) is
    appended — the shape the paper's Clock-vs-MG-LRU counter
    comparisons read. *)

val vmstat_refault_hist : (string * Obs.Vmstat.capture) list -> unit
(** Log2-bucketed refault-distance histogram, one labelled column per
    capture, trailing all-zero buckets trimmed.  Prints nothing when no
    capture recorded a refault. *)

val profile_table : Obs.Prof.merged -> unit
(** Perf-style phase table for one grid cell: rows in taxonomy order,
    one self-time column per aggregation class ("app", "kswapd", ...),
    then total self, inclusive time, and the phase's share of
    core-seconds (CPU phases only — wait phases render "-"). *)

val memcg_summary : runtime_ns:int -> Mem.Memcg.summary -> unit
(** Per-cgroup end-of-run table (usage vs. limits, throttles, scoped
    OOM kills, PSI shares of the run, p99 read latency) plus the
    machine-wide PSI note, and — when any counter fired — a
    [memory.stat] table (stat names as rows, one column per cgroup;
    root's column is the hierarchical total). *)

val fault_summary : Machine.result -> unit
(** Per-trial fault-injection block: injected faults by kind, recovery
    actions (retries / remaps / poisons / pins), OOM kills, and the
    invariant-audit verdict. *)
