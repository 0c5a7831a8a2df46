(** Deterministic simulated-time CPU profiler.

    Attributes every nanosecond charged through [Engine.Cpu.charge]
    (plus the waits the machine models outside the CPU) to a fixed
    phase taxonomy mirroring the kernel functions the paper names.
    Like the trace sink in {!Obs}, a profiler sink only observes: it
    never draws random numbers, schedules events, or charges CPU, so a
    profiled run's simulation results are bit-identical to an
    unprofiled one, and {!disabled} is free.

    Attribution has three sources which together must count each
    nanosecond exactly once:

    - {!charge_phase}: a policy or the machine attributes work at the point
      of accrual, tagging it with a phase.  Because the same work is
      also accumulated into a counter that the machine later pushes
      through an untagged [Cpu.charge], the sink remembers the
      attributed amount as {e pending}.
    - untagged [Cpu.charge]: reaches the sink via the hook installed
      with [Engine.Cpu.set_hook].  Pending attribution is subtracted
      first; only the unattributed remainder lands in the enclosing
      phase span (or the thread's default phase).
    - [Cpu.charge_tagged]: work charged nowhere else; the full
      amount is attributed to the given phase and pending is left
      alone.

    Waits ({!wait}) are simulated stalls, never CPU, so they bypass the
    pending machinery entirely. *)

type phase =
  | App_compute
  | Fault_handling
  | Rmap_walk
  | Pte_scan
  | Aging_walk
  | Evict_scan
  | Writeback_wait
  | Swap_wait
  | Barrier_wait
  | Oom_kill
  | Hook_fault   (** guest [on_fault] dispatch (Policy_hooks V1) *)
  | Hook_access  (** guest [on_access_sample] dispatch *)
  | Hook_tick    (** guest [on_scan_tick] dispatch *)
  | Hook_evict   (** guest [evict_request] dispatch + host validation *)

val all_phases : phase array
(** Taxonomy order; also the rendering order of report tables. *)

val n_phases : int

val phase_index : phase -> int
(** Position in {!all_phases}; also the tag passed through the
    [Engine.Cpu] hook. *)

val phase_of_index : int -> phase
(** @raise Invalid_argument outside [0 .. n_phases - 1]. *)

val phase_name : phase -> string
(** Stable snake_case name used in every output format. *)

val wait_phase : phase -> bool
(** True for phases that measure stall time rather than compute
    ([Writeback_wait], [Swap_wait], [Barrier_wait]). *)

val guest_phase : phase -> bool
(** True for the guest-hook phases ([Hook_*]).  Builtin-only runs never
    charge them; report tables render their rows only when nonzero, so
    pre-SDK output is unchanged. *)

val path_code : phase list -> int
(** Encode a root-first phase stack as an int, 4 bits per frame. *)

val path_phases : int -> phase list
(** Inverse of {!path_code}.
    @raise Invalid_argument on a malformed code. *)

(** {1 Configuration} *)

type mode =
  | Off     (** no sink: {!create} returns {!disabled} *)
  | Totals  (** per-class, per-stack phase totals *)
  | Spans   (** totals plus the per-thread span timeline ([--perfetto]) *)

(** {1 Sinks} *)

type t

val disabled : t
(** Every operation on [disabled] is a no-op. *)

val create : mode -> t
(** [create Off] is {!disabled}. *)

val enabled : t -> bool

(** {1 Thread registry}

    Threads are registered once before the simulation starts.  App
    threads all share aggregation class ["app"]; each distinct kthread
    name ("kswapd", "lru_gen_aging", ...) gets its own class, so the
    per-policy tables separate application time from reclaim-machinery
    time the way the paper's §V does. *)

type thread_class = App | Kthread

val register_thread :
  t -> tid:int -> name:string -> klass:thread_class -> default:phase -> unit
(** [default] is the phase that absorbs this thread's unattributed
    charges when no phase span is open. *)

val enter_thread : t -> tid:int -> unit
(** Make [tid] the attribution target for subsequent charges.  Called
    at the top of every scheduler callback; resets the thread's span
    stack and clears pending attribution so a thread that accrued
    attribution but never flushed it (e.g. a kthread step that went
    back to sleep) cannot leak into its successor. *)

(** {1 Phase spans} *)

val begin_phase : t -> now:int -> phase -> unit
(** Push [phase] onto the current thread's stack; until the matching
    {!end_phase}, untagged charges land here and tagged charges nest
    under it.  [now] is simulated time, used only for the recorded
    span. *)

val end_phase : t -> now:int -> unit
(** Pop the innermost phase (no-op on an empty stack) and, when spans
    are on, record it as [[begin, max begin now]]. *)

(** {1 Attribution} *)

val charge_phase : t -> phase -> int -> unit
(** Attribute [ns] of the current thread's work to [phase] {e and}
    remember it as pending (see the module preamble). *)

val suspend_pending : t -> int
(** Save and zero the pending-attribution counter.  Brackets a nested
    flush point (a direct-reclaim episode inside a fault handler) so
    its aggregate untagged charge consumes only attribution accrued
    inside the bracket; pair with {!resume_pending}. *)

val resume_pending : t -> int -> unit
(** Add a saved pending amount back (inverse of {!suspend_pending}). *)

val on_cpu_charge : t -> int -> int -> unit
(** [on_cpu_charge t phase_idx ns] is the [Engine.Cpu.set_hook]
    target: [phase_idx] is a {!phase_index}, or [-1] for untagged
    charges, whose pending-covered portion is dropped. *)

val wait : t -> tid:int -> now:int -> phase -> int -> unit
(** Attribute [ns] of stall ending at [now] to [phase] on thread
    [tid] (flat — waits do not nest), recording a span when spans are
    on.  Unlike charges, waits may target a thread other than the
    current one (barrier releases attribute to the waiter). *)

val span : t -> tid:int -> phase -> t0:int -> t1:int -> unit
(** Record a span without touching totals (timeline-only context such
    as a kthread's work window).  No-op unless spans are on. *)

val mark : t -> tid:int -> now:int -> phase -> unit
(** Zero-duration {!span} (instant events such as an OOM kill). *)

(** {1 Capture and merging} *)

type capture = {
  classes : string array;  (** aggregation classes, index 0 = ["app"] *)
  threads : (int * string * int) array;
      (** [(tid, name, class)] sorted by tid *)
  totals : (int * int * int) array;
      (** [(class, path code, ns)] sorted for determinism *)
  spans : (int * int * int * int) array;
      (** [(tid, phase index, t0, t1)] in record order; empty unless
          spans were on *)
}

val capture : t -> capture option
(** [None] iff the sink is {!disabled}. *)

type merged = {
  m_classes : string array;
  m_totals : (int * int * int) array;
      (** [(class, path code, ns)] sorted; class indexes into
          [m_classes] *)
}

val merge : capture list -> merged
(** Sum totals across trials.  Classes are unified by name in first-
    appearance order, so merging the same captures in the same order
    always yields byte-identical renderings regardless of [--jobs]. *)
