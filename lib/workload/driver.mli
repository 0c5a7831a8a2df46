(** The thread driver shared by both simulated machines: it steps a
    workload's threads in segments of at most 32 pages,
    rendezvouses them at barriers, and runs a policy's kernel threads
    with a load-dependent run-queue delay, all through one CPU
    contention model.  This interleaving is the source of run-to-run
    variance the paper discusses (§VI-A); DESIGN.md ("Thread driver")
    gives the model.  A machine keeps only its page state and plugs its
    touch/fault path in through {!hooks}, called once per segment, never
    per page.  Every continuation is pre-allocated per thread. *)

type t

type hooks = {
  segment :
    tid:int -> Chunk.t -> first:int -> last:int -> cursor:int ref -> cpu_acc:int ref ->
    unit;
      (** Touch pages [first .. last - 1] of the chunk for thread [tid].
          [cpu_acc] enters holding the segment's share of the chunk's
          compute; add what the touches cost.  [cursor] enters at the
          current time; advance it past any time the thread is blocked
          (swap reads, reclaim stalls).  Stop touching if a touch kills
          [tid]. *)
  low_memory : unit -> bool;  (** after every segment: [true] wakes the kthreads *)
  request_done : tid:int -> Chunk.t -> latency_ns:int -> unit;
      (** a chunk with [latency_class >= 0] finished, [latency_ns] after
          its first segment started *)
  thread_exit : tid:int -> unit;  (** [tid] reached [Finished] (not on {!kill}) *)
}

val create :
  sim:Engine.Sim.t ->
  cpu:Engine.Cpu.t ->
  rng:Engine.Rng.t ->
  ?prof:Obs.Prof.t ->
  barrier_ns:int ->
  kthread_jitter_ns:int ->
  barrier_groups:int array option ->
  Chunk.packed ->
  t
(** A driver not yet started.  [rng] is drawn for segment jitter and
    run-queue delays.  [barrier_groups] maps threads to groups (default:
    one group).  With [prof], application threads are registered now as
    ["app<tid>"], and the driver attributes segment compute, barrier
    waits and kthread work windows.
    @raise Invalid_argument unless [barrier_groups] has one entry per
    thread. *)

val start : t -> hooks -> Engine.Kthread.t list -> unit
(** Install the hooks, register the kernel threads with the profiler
    (ids follow the application threads), and schedule every kernel
    thread, then every application thread, at the current time. *)

val wake_kthreads : t -> unit
(** Every kthread sleeping in [Sleep_until_woken] steps again now. *)

val kill : t -> int -> unit
(** Thread [tid] takes no further step, leaves its barrier group and
    counts as finished now. *)

val stall : t -> tid:int -> until:int -> unit
(** Deschedule [tid] until [until] (or any later stall end). *)

val threads : t -> int

val live : t -> int -> bool
(** Neither finished nor killed. *)

val killed : t -> int -> bool

val killed_threads : t -> bool array
(** Thread id to killed, shared: read only. *)

val stopped : t -> bool

val running : t -> bool
(** Not stopped and some thread live: recurring machine ticks
    reschedule only while this holds. *)

val per_thread_finish : t -> int array  (** a copy; [-1] while live *)

val runtime_ns : t -> int
(** The later of now and the last finish time. *)
