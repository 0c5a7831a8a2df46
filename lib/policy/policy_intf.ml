(** The contract between the simulated machine and a replacement policy.

    A policy sees the world the way the kernel's reclaim code does: the
    page table with accessed/dirty bits, the frame table / reverse map, and
    memory-pressure watermarks.  It acts through [reclaim_page] (unmap +
    write back + free, performed by the machine) and reports the CPU it
    burned so the machine can charge contention and fault latency.

    Policies expose background work as {!kthread}s — bounded steps the
    machine drives through its processor-sharing CPU model, mirroring how
    kswapd and MG-LRU's aging walker compete with application threads. *)

type env = {
  costs : Mem.Costs.t;
  frames : Mem.Frame_table.t;
  pt : Mem.Page_table.t;
      (** the machine's one page table; frame owners are its vpns *)
  rng : Engine.Rng.t;
  now : unit -> int;
  reclaim_page : pfn:int -> unit;
      (** Machine callback: unmap the owning PTE, write back if needed,
          return the frame to the allocator.  The policy must already
          have detached the frame from its own structures. *)
  evictable : pfn:int -> force:bool -> bool;
      (** Cgroup gate, consulted {e before} detaching a candidate.  A
          [false] answer means the frame is off-limits to this reclaim
          pass — outside the targeted cgroup, or protected by
          [memory.low] — and the policy must rotate it back instead of
          calling [reclaim_page].  [force] mirrors the policy's own
          escalation (a pass that freed nothing): it overrides
          [memory.low] protection, never cgroup targeting.  Always
          [true] when cgroups are off, making the check free. *)
  free_count : unit -> int;
  total_frames : int;
  low_watermark : int;
  high_watermark : int;
  obs : Obs.t;
      (** Telemetry sink (often {!Obs.disabled}).  Observation only: a
          policy may emit events and report gauges through it but must
          never branch on it. *)
  prof : Obs.Prof.t;
      (** CPU profiler sink (often {!Obs.Prof.disabled}).  Observation
          only, like [obs]: a policy attributes the work it accrues into
          {!reclaim_stats.cpu_ns} by phase ([Obs.Prof.charge_phase])
          but must never branch on it. *)
  vmstat : Obs.Vmstat.t;
      (** The machine's vmstat counter registry.  Observation only, like
          [obs]: a policy bumps the counters matching its actions
          ([pgscan_direct]/[pgscan_kswapd], [pgactivate]/[pgdeactivate],
          the [mglru_*] family) but must never read them back into a
          decision. *)
}

type reclaim_stats = {
  mutable freed : int;       (** frames handed back via [reclaim_page] *)
  mutable scanned : int;     (** candidate pages examined *)
  mutable promoted : int;    (** pages saved by their accessed bit *)
  mutable rmap_walks : int;
  mutable pte_scans : int;   (** PTEs examined by linear/spatial scans *)
  mutable cpu_ns : int;      (** compute consumed; the machine adds this
                                 to the faulting thread's latency *)
}

let fresh_stats () =
  { freed = 0; scanned = 0; promoted = 0; rmap_walks = 0; pte_scans = 0; cpu_ns = 0 }

(* One definition, in {!Engine.Kthread}, shared with the thread driver. *)
type kstep = Engine.Kthread.kstep =
  | Work of int
  | Sleep of int
  | Sleep_until_woken

type kthread = Engine.Kthread.t = {
  kname : string;
  kstep : unit -> kstep;
}

module type S = sig
  type t

  val policy_name : string

  val create : env -> t

  val on_page_mapped :
    t -> pfn:int -> vpn:int -> refault:bool -> file_backed:bool ->
    speculative:bool -> unit
  (** A page was just faulted in and mapped to [pfn].  [refault] means it
      had been evicted before (its contents came from swap);
      [speculative] means readahead brought it in rather than a demand
      access, so it should start its life cold. *)

  val on_page_touched : t -> pfn:int -> write:bool -> unit
  (** Oracle hook invoked on every simulated access.  Hardware-realistic
      policies (Clock, MG-LRU) must ignore it — they only see accessed
      bits; baselines like exact LRU may use it. *)

  val direct_reclaim : t -> want:int -> reclaim_stats
  (** Synchronously free at least one frame whenever any frame is
      evictable, preferring [want].  Called from the allocation slow
      path with memory exhausted. *)

  val kthreads : t -> kthread list
  (** Background workers; the machine schedules their steps. *)

  val stats : t -> (string * int) list

  val gauges : t -> (string * float) list
  (** Instantaneous internal state for the machine-state sampler
      (generation/list occupancy, PID error, ...).  Cheap — called on
      every sampling tick. *)

  val check_invariants : t -> unit
  (** For tests: verify internal structures; raise on corruption. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let packed_name (Packed ((module P), _)) = P.policy_name
