(** Comparison harness for the §II-C migration-policy design space.

    Runs the paper's workloads over the two-tier machine (no swap; fast
    DRAM + slow CXL-like tier) under every registered migration policy
    and reports runtime, the slow-tier access fraction, and migration
    traffic — the tiering analogue of the replacement figures.  Not part
    of the paper's evaluation, but the design space its background
    section frames (and the context in which it reads MG-LRU's
    data structures).

    The workload x policy x trial grid is fanned out through the
    context's domain pool ({!Runner.jobs}); every trial seeds its own
    workload and machine, and results are aggregated in input order, so
    the printed tables do not depend on the parallelism. *)

val study : ?fast_frac:float -> ?trials:int -> Runner.ctx -> unit -> Report.figure
(** The full comparison, one table per workload (TPC-H, PageRank,
    YCSB-B), at [fast_frac] (default 0.5) of the footprint in the fast
    tier. *)
