(** The multi-tenant containment experiment behind [repro fleet].

    Runs a {!Runner.Fleet} cell — [tenants] YCSB instances sharing one
    machine, tenant [hot] a runaway — under per-tenant memory cgroups,
    and builds a per-cgroup table: mean resident usage, pooled request
    latency tail (p50/p99/p999), throttle and scoped-OOM counters, and
    PSI some/full as shares of total simulated time. *)

val default_spec : tenants:int -> hot:int -> Mem.Memcg.spec
(** The auto spec used when the context carries none: one cgroup per
    tenant (threads [2i, 2i+1]); the hot tenant throttled from 30% and
    hard-capped at 40% of capacity, the others protected by a 15%
    [memory.low]; Senpai-style proactive probe on (100 ms interval,
    0.10 PSI threshold, 1% step). *)

val run :
  Runner.ctx ->
  tenants:int ->
  hot:int ->
  policy:Policy.Registry.spec ->
  ratio:float ->
  swap:Runner.swap_medium ->
  Report.figure
(** Run the cell and build its per-cgroup figure; failed trials are
    counted in a leading note and reported by the context like any
    other.  When the context has no cgroup spec installed,
    {!default_spec} is applied via {!Runner.derive}.
    @raise Invalid_argument on [tenants < 2] or [hot] out of range. *)
