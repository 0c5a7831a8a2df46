(** Belady regret scoreboard: demand faults over the offline optimum.

    The standing comparison surface every policy — builtin or guest —
    lands on: for each workload x pressure cell, the mean demand-fault
    count of the online policy divided by the mean refetch count of
    Belady's OPT on a deterministically derived reference trace of the
    same seeded workload instances.  Rides the {!Runner} cache/journal/
    jobs machinery, so `repro regret` output is byte-identical for every
    [--jobs] value. *)

type cell = {
  c_workload : Runner.workload_kind;
  c_policy : Policy.Registry.spec;
  c_ratio : float;
  c_trials : int;
  c_failed : int;  (** trials that raised or timed out *)
  c_policy_faults : float;
      (** mean major faults over the successful trials; NaN if all
          failed *)
  c_belady_faults : float;  (** mean Belady refetches (faults - cold) *)
  c_regret : float;
      (** [c_policy_faults /. c_belady_faults]; NaN when Belady needs no
          refetch *)
}

val default_policies : Policy.Registry.spec list
(** Scoreboard default: clock, mglru, s3-fifo, sieve, perceptron. *)

val default_workloads : Runner.workload_kind list
(** TPC-H and PageRank. *)

val default_ratios : float list
(** 50% and 90% memory pressure. *)

val compute :
  Runner.ctx ->
  workloads:Runner.workload_kind list ->
  policies:Policy.Registry.spec list ->
  ratios:float list ->
  swap:Runner.swap_medium ->
  cell list
(** Prefetch the whole grid through the ctx pool, then assemble cells
    serially (workload-major, then ratio, then policy) — deterministic
    for every [jobs] value. *)

val figure : swap:Runner.swap_medium -> cell list -> Report.figure
(** The scoreboard, one row per cell.  The regret column shows ["-"]
    for a cell whose trials all succeeded but whose Belady bound needs
    no refetch (the ratio has no value), and ["failed"] when it cannot
    be computed because trials failed.  The trials column reads
    [n(-k)] when [k] of [n] trials failed. *)
