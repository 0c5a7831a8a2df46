(** The [repro chaos] resilience report.

    For each transient class x workload x policy cell, run one traced
    baseline trial to calibrate the cell's runtime R, synthesize a
    chaos spec whose disturbance window covers [0.3R, 0.55R] (rounded
    to milliseconds), re-run the trial under that spec, and report how
    the policy degraded and recovered:

    - demand-fault p99/p999 latency inside the window vs before/after,
    - time from the end of the window until the fault rate returns to
      within 25% of the pre-window steady state,
    - OOM kills, poisoned reads, and the injection tallies.

    Everything derives from cached deterministic trials and the traced
    event stream, so the report is byte-identical for every [--jobs]
    value. *)

val default_classes : string list
(** ["hotplug"; "degrade"; "churn"] — the resilience classes of the
    report (burst and corrupt are fuzzer fodder, not report rows). *)

val run :
  Runner.ctx ->
  classes:string list ->
  workloads:Runner.workload_kind list ->
  policies:Policy.Registry.spec list ->
  ratio:float ->
  swap:Runner.swap_medium ->
  Report.figure list
(** One figure per class: each cell's synthesized spec (or why it
    failed) as a leading note, then one row per cell.
    @raise Invalid_argument on a class outside {!default_classes},
    before any trial runs. *)
