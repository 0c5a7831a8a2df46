(** Cgroup-style memory containment (Linux memory controller, simulated).

    Every thread belongs to a memory cgroup.  Cgroup 0 is the root:
    unlimited, and the home of any thread a spec does not claim.  Each
    cgroup carries the three Linux limits, in pages:

    - [memory.low] — reclaim {e protection}: pages charged to a cgroup
      at or under its low bound are skipped by reclaim while unprotected
      memory remains (the policy's force escalation overrides, exactly
      as Linux overrides protection when nothing else is reclaimable).
    - [memory.high] — {e throttling}: a cgroup over high keeps running,
      but each further charge costs the faulting thread a synchronous
      targeted-reclaim attempt plus an exponentially growing stall in
      simulated time.
    - [memory.max] — the {e hard cap}: a charge that would cross max
      forces per-cgroup direct reclaim and, if that cannot make room, a
      scoped OOM kill confined to the offending cgroup.

    The module is pure bookkeeping — charging, PSI stall accounting,
    throttle state, and the proactive (Senpai-style) limit probe.  The
    machine owns every side effect: stalls, reclaim passes, kills. *)

(** {1 Spec} *)

type group_spec = {
  g_name : string;                (** [A-Za-z0-9_-]+ *)
  g_threads : (int * int) list;   (** inclusive tid ranges *)
  g_low : Spec_syntax.amount option;
  g_high : Spec_syntax.amount option;
  g_max : Spec_syntax.amount option;
}

type proactive_spec = {
  p_interval_ns : int;  (** probe period in simulated ns *)
  p_threshold : float;  (** PSI [some] fraction that stops tightening *)
  p_step : Spec_syntax.amount;  (** limit adjustment per probe tick *)
}

type spec = {
  groups : group_spec list;
  proactive : proactive_spec option;
  psi_interval_ns : int;  (** PSI sampling/trace cadence *)
}

val parse_spec : string -> (spec, string) result
(** Grammar, in the syntax shared with [--chaos] ({!Spec_syntax}; README,
    "Spec syntax"):

    {v
    SPEC      := group (';' group)*
    group     := NAME ':' field (',' field)*
    field     := KEY '=' VALUE
    v}

    Ordinary groups take [threads=] (thread ranges) plus optional
    [low=], [high=], [max=] (amounts).  The reserved group name
    [proactive] enables the probe controller and takes [interval=]
    (a time), [threshold=] (PSI fraction, 0..1) and [step=] (an amount).
    The reserved name [psi] takes [interval=] to retune the PSI tick.
    Errors read ["1:COL: message"]. *)

val spec_to_string : spec -> string
(** Canonical round-trippable rendering (used for cache keys, so its
    bytes never change; intervals print as raw ns). *)

(** {1 Runtime state} *)

type t

val create :
  spec -> capacity_frames:int -> nthreads:int -> footprint_pages:int -> t
(** Resolves percentage limits against [capacity_frames] and assigns
    threads; tids not named by any group (and kthreads) charge the
    root.  @raise Invalid_argument on overlapping or out-of-range
    thread assignments, or a [psi_interval_ns] or [p_interval_ns] that
    is not positive (specs built in code skip the parser's checks). *)

val ncgroups : t -> int
(** Including the root at index 0. *)

val name : t -> int -> string

val find : t -> string -> int option
(** Cgroup index by name ([Some 0] for ["root"]). *)

val set_limits :
  t -> int -> ?low:int -> ?high:int -> ?max_limit:int -> unit -> unit
(** Rewrite [memory.{low,high,max}] on a live cgroup (the chaos
    limit-churn injector).  Omitted limits are untouched; values are
    resolved frame counts, [max_int] meaning unlimited for high/max.
    Takes effect on the next charge; the caller triggers any reclaim a
    newly lowered max demands. *)

val cg_of_thread : t -> int -> int

val cg_of_page : t -> int -> int
(** [-1] when the page is uncharged. *)

val usage : t -> int -> int
val low : t -> int -> int

val high : t -> int -> int
(** [max_int] when unlimited. *)

val eff_limit : t -> int -> int
(** The proactive probe's current effective limit ([max_int] until the
    controller first tightens it). *)

(** {1 Charging} *)

val charge : t -> tid:int -> vpn:int -> unit
(** Page [vpn] became resident on behalf of [tid]. *)

val uncharge : t -> vpn:int -> unit
(** Page [vpn] left memory (eviction or teardown). *)

val thread_exit : t -> tid:int -> now:int -> unit
(** [tid] finished or was killed; shrinks the cgroup's live count used
    by the PSI [full] criterion, after sweeping stalls recorded up to
    [now] against the live set the thread still belonged to. *)

(** {1 Limit queries} *)

val over_high : t -> int -> bool
val high_overage : t -> int -> int
val over_max : t -> int -> extra:int -> bool
(** Would charging [extra] more pages cross [memory.max]? *)

val max_overage : t -> int -> extra:int -> int
val low_protected : t -> int -> bool
(** Under (or at) its [memory.low] protection, which is > 0. *)

val throttle_ns : t -> tid:int -> base_ns:int -> int
(** Post-charge [memory.high] penalty for [tid]: 0 when its cgroup is
    within high (and the thread's streak resets); otherwise
    [base_ns * 2^streak], capped, with counters updated. *)

(** {1 PSI} *)

val stall : t -> tid:int -> t0:int -> t1:int -> unit
(** Record that [tid] was memory-stalled over [(t0, t1)] in simulated
    time — swap-in waits, direct-reclaim writeback waits, and
    [memory.high] throttle stalls.  Feeds both the thread's cgroup and
    the machine-wide tracker. *)

val advance : t -> now:int -> unit
(** Fold recorded stall intervals into [some]/[full] totals up to
    [now].  [some] counts time at least one thread was stalled; [full]
    counts time every live thread of the group was. *)

val psi_some : t -> int -> int
val psi_full : t -> int -> int
val machine_some : t -> int
val machine_full : t -> int
val psi_interval_ns : t -> int

(** {1 Proactive probe} *)

val proactive_on : t -> bool

val proactive_step : t -> int -> int * int
(** One Senpai-style probe tick for a cgroup: measures PSI pressure
    over the window since the last tick, tightens the effective limit
    while pressure is under the threshold, backs it off when over, and
    returns [(reclaim_want, pressure_ppm)] — the pages the machine
    should reclaim from the group to meet the new limit, and the
    measured pressure in parts-per-million. *)

(** {1 Counters and reports} *)

val note_oom : t -> int -> unit
val throttled_ns : t -> int -> int
val note_latency : t -> tid:int -> cls:int -> int -> unit
(** Request latency in ns attributed to [tid]'s cgroup; [cls] 0 = read,
    1 = write (see {!Workload.Chunk.read_class}). *)

(** {2 memory.stat}

    The per-cgroup slice of the machine's vmstat registry.  Counters
    are indexed by the [st_*] constants below; every bump lands on the
    owning group {e and} the root, so root's row is the hierarchical
    total like a cgroup-v2 parent's [memory.stat]. *)

val st_pgfault : int
val st_pgmajfault : int
val st_pgsteal : int
val st_pswpin : int
val st_pswpout : int
val st_ws_refault : int
val st_ws_activate : int
val st_ws_restore : int
val nr_stats : int

val stat_names : string array
(** Kernel [memory.stat] names, in index order. *)

val vm_bump : t -> tid:int -> int -> unit
(** Bump a [memory.stat] counter for [tid]'s cgroup (and root). *)

val vm_bump_page : t -> vpn:int -> int -> unit
(** Bump for the cgroup currently charged for page [vpn] (root when
    uncharged) — reclaim-side attribution, like [pgsteal]. *)

type report = {
  r_name : string;
  r_usage : int;          (** resident pages at end of run *)
  r_low : int;
  r_high : int;           (** -1 when unlimited *)
  r_max : int;            (** -1 when unlimited *)
  r_limit : int;          (** final proactive effective limit; -1 if untouched *)
  r_throttles : int;
  r_throttled_ns : int;
  r_oom_kills : int;
  r_psi_some_ns : int;
  r_psi_full_ns : int;
  r_read_latencies : Structures.Latencies.runs;  (** per-request ns *)
  r_write_latencies : Structures.Latencies.runs;
  r_vm : int array;  (** [memory.stat] counters, [nr_stats] long *)
}

type summary = {
  s_groups : report list;  (** root first, then spec order *)
  s_some_ns : int;         (** machine-wide PSI some *)
  s_full_ns : int;         (** machine-wide PSI full *)
}

val summary : t -> now:int -> summary
(** Advances PSI to [now], then seals every group's latencies into
    runs: call once. *)
