(** The tiered-memory machine: one trial of a workload over fast + slow
    memory under a migration policy.

    A cut-down sibling of {!Repro_core.Machine} for the §II-C design
    space: there is no swap device and no eviction — every page stays
    mapped after first touch — but touches to slow-tier pages pay a
    latency penalty, poisoned pages take hint faults, and the policy's
    kernel threads migrate pages while competing for the same CPU as the
    application.  The quantity under study is how close a policy gets
    the hot working set to an all-fast placement. *)

(** Only the tiers' sizes, the seed and the kernel-thread jitter vary.
    The rest is fixed: 12 hardware threads, the experiment-scaled cost
    table ({!Mem.Costs.experiment} at scale 1), a 3 ms slow-tier
    penalty per touch, 50 µs hint faults, 400 µs per migrated page and
    20 ns per fast-tier touch. *)
type config = {
  fast_frames : int;
  slow_frames : int;
  kthread_jitter_ns : int;
      (** mean run-queue latency between kernel-thread steps; 0
          disables *)
  seed : int;
}

val default_config : fast_frames:int -> slow_frames:int -> seed:int -> config
(** 50 µs kernel-thread jitter, as on {!Repro_core.Machine}. *)

type result = {
  runtime_ns : int;
  fast_touches : int;
  slow_touches : int;
  cold_touches : int;   (** first-touch placements *)
  hint_faults : int;
  promotions : int;
  demotions : int;
  failed_promotions : int; (** promote calls rejected (fast tier full) *)
  fast_resident : int;
  slow_resident : int;
  per_thread_finish : int array;
  policy_stats : (string * int) list;
  policy_name : string;
}

val slow_fraction : result -> float
(** Fraction of warm touches served from the slow tier — the headline
    quality metric for a migration policy. *)

val run :
  config ->
  policy:(Migration_intf.env -> Migration_intf.packed) ->
  workload:Workload.Chunk.packed ->
  result
