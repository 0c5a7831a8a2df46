(** Plain-text rendering for every table command.

    Every table the CLI prints is a typed {!table} inside a {!figure},
    printed by {!print_figure} (or, for a bare listing, {!print_table}).
    Only [repro run]'s per-trial lines ({!memcg_summary},
    {!fault_summary}) and {!trace_summary} print directly. *)

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

(** {1 Figures}

    A figure is built once as a typed value; {!print_figure} renders it
    as text and {!Csv_export.write_figure} as CSV. *)

type cell =
  | Text of string
  | Ratio of float  (** ["1.00x"] *)
  | Seconds of float  (** adaptive precision, as {!fsec} *)
  | Count of float  (** thousands separators, as {!fcount} *)
  | Ns of float  (** adaptive unit, as {!fns} *)
  | Fixed of int * float  (** that many decimals *)
  | Int of int  (** plain decimal, no separators *)
  | Percent of float  (** a percentage, one decimal: ["12.5%"] *)
  | Dash  (** ["-"]: no value — an empty sample, or a statistic the
              cell's trial count cannot support *)
(** A table cell.  A NaN number renders as {!failed_marker}. *)

type table = {
  caption : (string * string) list;
      (** the subsection path, outermost first, as (CSV column name,
          subsection title) pairs — e.g. [[("ratio", "ratio 75%");
          ("workload", "tpch")]] *)
  stem : string;  (** CSV file stem; tables sharing a stem share a file *)
  header : string list;
  rows : cell list list;
  export_only : bool;  (** written as CSV, never printed *)
}

type figure = {
  title : string;
  before : string list;  (** notes printed before the tables *)
  tables : table list;
  after : string list;  (** notes printed after them *)
}

val make_table :
  ?caption:(string * string) list -> ?export_only:bool -> stem:string ->
  header:string list -> cell list list -> table
(** A table; [caption] defaults to [[]], [export_only] to [false]. *)

val print_table : table -> unit
(** Fixed-width aligned rows under the header and a dashed separator;
    the first column left-aligned, the rest right-aligned.  Rows
    narrower than the header are padded.  The caption is not printed. *)

val print_figure : figure -> unit
(** Banner, leading notes, every printed table under the subsection
    titles its caption path does not share with the previous printed
    table, then the trailing notes. *)

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

val vmstat_table : (string * Obs.Vmstat.capture) list -> table
(** One labelled column per capture, the kernel counters (the first
    {!Obs.Vmstat.kernel_counters} indices) as rows.
    With exactly two columns a [delta] column (second minus first) is
    appended — the shape the paper's Clock-vs-MG-LRU counter
    comparisons read. *)

val vmstat_refault_hist : (string * Obs.Vmstat.capture) list -> table option
(** Log2-bucketed refault-distance histogram, one labelled column per
    capture, trailing all-zero buckets trimmed, captioned as its own
    subsection.  [None] when no capture recorded a refault. *)

val profile_table : Obs.Prof.merged -> table
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

val fault_summary : _ Machine.trial -> unit
(** Per-trial fault-injection block: injected faults by kind, recovery
    actions (retries / remaps / poisons / pins), OOM kills, and the
    invariant-audit verdict. *)
