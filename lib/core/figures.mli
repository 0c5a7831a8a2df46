(** Reproductions of the paper's Figures 1-12.

    Each figure is built once as a {!Report.figure}: the same series the
    paper plots (normalized means, joint runtime/fault distributions,
    tail latencies, quartile boxes) as typed table cells.
    {!Report.print_figure} renders it as text and
    {!Csv_export.write_figure} as CSV.  EXPERIMENTS.md records the
    paper-vs-measured comparison for every figure.

    A builder reads its cells through one lookup.  The figure's grid is
    what the builder reads, recorded by running it once against a lookup
    that runs no simulation, so each grid is stated in exactly one
    place.  [repro sweep] and the cached ablation studies are builders
    too, and {!cell} is the one place a cell's trials are split into
    results and failures.  {!build} first {!prefetch}es the grids through the context's
    domain pool, then builds serially from the cache — so a figure's
    value is identical for every [Runner.jobs] value. *)

type cell = {
  workload : Runner.workload_kind;
  policy : Policy.Registry.spec;
  ratio : float;
  swap : Runner.swap_medium;
  outcomes : Runner.trial_outcome list;
      (** every trial's outcome, in trial order *)
  results : Machine.stored list;
      (** the successful ([Done]) results only, in trial order *)
  failed : int;  (** how many trials raised or timed out *)
  perf : float;
      (** mean runtime (s) for TPC-H/PageRank; mean request latency (ns)
          for YCSB — the metric Figure 1 normalizes.  NaN if any trial
          failed: arithmetic on a failed cell stays NaN and the
          renderers show it as "failed", so a failure can never hide
          inside a partial mean *)
  mean_faults : float;  (** NaN if any trial failed, like [perf] *)
}

val cell :
  Runner.ctx -> workload:Runner.workload_kind -> policy:Policy.Registry.spec ->
  ratio:float -> swap:Runner.swap_medium -> cell
(** Runs (or fetches) the cell's trials failure-tolerantly
    ({!Runner.try_cell}): failed trials surface in [outcomes]/[failed],
    never as an exception. *)

val mean_runtime : cell -> float
(** Mean runtime (s) of the cell's trials, for any workload; NaN if any
    trial failed, like [perf]. *)

type lookup =
  workload:Runner.workload_kind ->
  policy:Policy.Registry.spec ->
  ratio:float ->
  swap:Runner.swap_medium ->
  cell

type builder = lookup -> Report.figure
(** A figure built from the cells it reads through the lookup. *)

val paper : int -> builder
(** The builder of the paper's figure [n].
    @raise Invalid_argument outside 1-12. *)

val all_figures : int list
(** [1; 2; ...; 12]. *)

val capacity_sweep : workload:Runner.workload_kind -> swap:Runner.swap_medium -> builder
(** [repro sweep]: every paper policy's mean runtime and faults at 50%,
    75% and 90% capacity.  A failed cell renders as "failed". *)

val grid :
  builder ->
  (Runner.workload_kind * Policy.Registry.spec * float * Runner.swap_medium) list
(** The cells the builder reads, deduplicated, in registry order
    (workload, then policy, ratio, swap).  Runs no simulation. *)

val prefetch : Runner.ctx -> builder list -> unit
(** Compute every listed builder's uncached cells through the context's
    domain pool (deduplicated across builders). *)

val build : Runner.ctx -> builder list -> Report.figure list
(** Prefetch the union of the builders' grids, then build each figure
    from the cache, in list order. *)
