(** Processor-sharing CPU contention model.

    The simulated machine mirrors the paper's testbed: 6 cores / 12
    hardware threads shared by the application threads and the kernel's
    reclaim machinery (Clock's kswapd, MG-LRU's aging and eviction
    walkers).  When more entities are runnable than there are hardware
    threads, every entity's compute stretches proportionally — this is
    the mechanism behind the paper's finding that heavyweight scanning
    (Scan-All) slows the application down and perturbs per-thread
    progress. *)

type t

val create : hw_threads:int -> t
(** @raise Invalid_argument if [hw_threads <= 0]. *)

val runnable : t -> int
(** Entities currently executing or waiting for a hardware thread. *)

val run_begin : t -> unit
(** Declare one more runnable entity. *)

val run_end : t -> unit
(** Declare one runnable entity done (or blocked on I/O). *)

val scale : t -> int -> int
(** [scale t work] converts [work] nanoseconds of pure compute into
    wall-clock nanoseconds under the current load: [work] itself while
    [runnable <= hw_threads], stretched by [runnable / hw_threads]
    beyond that.  The caller should already be counted in [runnable]. *)

val load : t -> float
(** Current stretch factor, [>= 1.0]. *)

val busy_ns : t -> int
(** Total compute-nanoseconds charged so far (for utilization metrics). *)

val set_hook : t -> (int -> int -> unit) -> unit
(** Install an observation hook called as [f phase work] on every
    positive charge.  [phase] is the caller's opaque tag ([-1] for
    an untagged {!charge}).  The engine knows
    nothing about tags — the profiler layer above assigns meaning — and
    no hook is installed by default, so uninstrumented machines pay one
    branch per charge. *)

val charge : t -> int -> unit
(** Account [work] nanoseconds of compute against [busy_ns], untagged. *)

val charge_tagged : t -> phase:int -> int -> unit
(** [charge], with [phase] forwarded verbatim to the hook, if any; it
    never affects timing or accounting. *)
