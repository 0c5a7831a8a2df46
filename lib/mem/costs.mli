(** CPU cost model for memory-management operations.

    All costs are in nanoseconds of pure compute (the {!Engine.Cpu}
    model stretches them under contention).  The relative magnitudes
    encode the paper's central asymmetry: walking the reverse map is a
    pointer chase costing three orders of magnitude more per page than a
    linear page-table scan (§III-B), which is why MG-LRU's aging walker
    exists at all. *)

type t = {
  pte_scan_ns : int;      (** linear page-table scan, per PTE *)
  rmap_walk_ns : int;     (** one physical-to-virtual reverse-map walk *)
  bloom_query_ns : int;   (** Bloom-filter membership test, per region *)
  bloom_update_ns : int;  (** Bloom-filter insertion *)
  list_op_ns : int;       (** O(1) LRU/generation list move *)
  fault_trap_ns : int;    (** page-fault entry/exit, allocation, bookkeeping *)
  region_size : int;      (** PTEs per page-table leaf region *)
  spatial_scan_max : int; (** max PTEs scanned around an eviction-side hit *)
  barrier_ns : int;       (** synchronization cost at a workload barrier *)
  hook_dispatch_ns : int; (** one guest-hook invocation (trampoline +
                              capability checks), per call *)
}

val default : t
(** Kernel-realistic per-operation costs on contemporary hardware. *)

val scaled : ?factor:int -> t -> t
(** Scale per-page management costs up by [factor] (default 256, the
    footprint scale-down of the experiment harness).  With 256x fewer
    pages than the paper's testbed, each per-page management event must
    carry 256x the cost for scanning overhead to claim the same share of
    runtime — the quantity whose interplay with swap speed is the
    paper's central subject.  Device latencies and workload compute are
    calibrated the same way (DESIGN.md, "Scaling").  [fault_trap_ns]
    scales only 20x: trap overhead is partially per-fault-event real
    time. *)

val experiment : scale:int -> t
(** The cost table both simulated machines run: {!default} {!scaled}
    by [max 1 (256 / scale)], with page-table regions (and the spatial
    scan bound) of [min 512 (64 * scale)] PTEs.  [scale] is the
    harness's [--scale] footprint multiplier: at 1 the footprints are
    1/256 of the paper's and regions shrink from 512 to 64 PTEs to keep
    region granularity comparable; at 256 regions are the paper's 512
    PTEs and per-page costs are unscaled (DESIGN.md, "Scaling"). *)
