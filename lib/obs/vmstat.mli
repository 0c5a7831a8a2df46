(** Deterministic [/proc/vmstat]-style counter registry: the one store
    for every integer event counter a simulated machine keeps.

    One {!t} per simulated machine.  The first {!kernel_counters}
    indices mirror the kernel names the paper reads: fault and reclaim
    activity ([pgfault], [pgmajfault], [pgscan_kswapd]/[pgscan_direct],
    [pgsteal], [pgactivate]/[pgdeactivate]), swap traffic
    ([pswpin]/[pswpout]), OOM kills, the Linux workingset counters fed
    by shadow entries ([workingset_refault]/[activate]/[restore] plus a
    shadow-miss counter for refaults whose shadow was torn down), and
    MG-LRU generation/tier counters.  The indices after them are
    simulator counters with no kernel row: zero-fill faults, direct
    reclaim episodes and their latency, swap I/O recovery, fault
    injection, OOM teardown and invariant-audit violations.  A
    log2-bucketed refault-distance histogram rides along.

    {b Determinism and cost.}  Incrementing a counter is one array
    store — no allocation, no branching on configuration — so the
    machine, the swap manager and the policies count unconditionally,
    and every run ends with a {!capture}.  Counting never feeds back
    into any policy decision. *)

type t
(** A live counter registry.  Not thread-safe: one per trial, written
    only by the domain running that trial. *)

val create : unit -> t

(** {1 Counter indices}

    Stable indices into the registry; the result journal stores a
    capture in index order, so new counters must only append. *)

val pgfault : int
val pgmajfault : int
val pgscan_kswapd : int
val pgscan_direct : int
val pgsteal : int
val pgactivate : int
val pgdeactivate : int
val pswpin : int
val pswpout : int
val oom_kill : int
val workingset_refault : int
val workingset_activate : int
val workingset_restore : int
val workingset_shadow_miss : int
val mglru_aging_passes : int
val mglru_promoted : int
val mglru_tier_protected : int

val kernel_counters : int
(** Indices below this are the kernel rows above; [repro vmstat]
    prints exactly these. *)

(** {2 Simulator counters} *)

val minor_faults : int
(** Zero-fill first touches. *)

val direct_reclaims : int
(** Direct-reclaim episodes on a faulting thread, cgroup-targeted ones
    included. *)

val direct_reclaim_ns : int
(** Total fault-path reclaim latency. *)

val io_retries : int
(** Swap I/O resubmissions after errors. *)

val io_remaps : int
(** Swap writes moved to a fresh slot after a permanent error. *)

val injected_transient : int
(** Faults the injector produced: transient and permanent errors,
    stalls, tail-latency spikes. *)

val injected_permanent : int
val injected_stalls : int
val injected_tail_spikes : int

val poisoned_reads : int
(** Demand reads whose data was lost. *)

val writeback_failures : int
(** Evictions abandoned because the write failed; the page is pinned. *)

val oom_discarded_pages : int
(** Pages torn down by OOM kills: resident frames freed plus
    swapped-out pages whose slots were released. *)

val invariant_violations : int
(** Total across periodic, post-injection and end-of-run audits. *)

val nr_counters : int

val names : string array
(** Kernel-style snake_case names, in index order. *)

val name : int -> string
(** @raise Invalid_argument when out of range. *)

val incr : t -> int -> unit

val add : t -> int -> int -> unit
(** Add [n] to a counter; non-positive [n] is a no-op (scan deltas). *)

val get : t -> int -> int

val dist_buckets : int
(** Number of refault-distance histogram buckets: bucket [i] holds
    distances in [[2^i, 2^(i+1))], bucket 0 holds 0 and 1, the last
    bucket is open-ended. *)

val dist_bucket : int -> int
(** Bucket index for one distance (exposed for the tests). *)

val note_refault_distance : t -> int -> unit

(** {1 Captures} *)

type capture = {
  counters : int array;      (** [nr_counters] totals, index order *)
  refault_dist : int array;  (** [dist_buckets] histogram counts *)
}

val capture : t -> capture
(** A snapshot copy of the registry. *)

val empty_capture : capture

val merge : capture list -> capture
(** Element-wise sum — per-cell totals across trials.  Deterministic for
    any grouping order (addition only). *)

val count : capture -> int -> int
(** One counter of a capture. *)

val refaults : capture -> int
(** Total refault-distance samples (= sum of the histogram). *)
