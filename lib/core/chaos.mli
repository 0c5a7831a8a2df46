(** Deterministic chaos scheduler: the [--chaos SPEC] grammar, its
    validation, and compilation to a virtual-time action schedule.

    A spec composes runtime-transient injectors in the [--cgroups]
    segment style:

    {v
    SPEC     := segment (';' segment)*
    segment  := hotplug:at=T,shrink=A[,restore=T]
              | degrade:at=T,for=D[,latency=Nx][,errors=P][,wear=P]
              | churn:at=T,cg=NAME[,low=A][,high=A][,max=A]
              | burst:at=T,for=D[,threads=RANGES]
              | corrupt:at=T
    P        := probability in 0..1
    v}

    Times [T], [D], amounts [A], thread [RANGES], the field syntax and
    the [1:COL:] error positions are shared with [--cgroups]: see
    {!Mem.Spec_syntax} and the README's "Spec syntax".  Parsing also
    rejects overlapping same-class windows.
    This module is pure data — {!Machine} applies compiled {!action}s at
    their virtual times, so a (seed, config, spec) triple replays
    identically at any [--jobs]. *)

type hotplug = {
  h_at : int;
  h_shrink : Mem.Spec_syntax.amount;
  h_restore : int option;  (** re-online time; [None] = never *)
}

type degrade = {
  d_at : int;
  d_for : int;
  d_latency : float;  (** service-time multiplier, >= 1 *)
  d_errors : float;   (** per-op transient error probability *)
  d_wear : float;     (** per-op permanent error probability *)
}

type churn = {
  c_at : int;
  c_cg : string;
  c_low : Mem.Spec_syntax.amount option;
  c_high : Mem.Spec_syntax.amount option;
  c_max : Mem.Spec_syntax.amount option;
}

type burst = {
  b_at : int;
  b_for : int;
  b_threads : (int * int) list;  (** inclusive tid ranges; [[]] = all *)
}

type injector =
  | Hotplug of hotplug
  | Degrade of degrade
  | Churn of churn
  | Burst of burst
  | Corrupt of { x_at : int }
      (** test-only: clear one mapped frame's owner at [x_at] — a
          deliberate invariant violation the fuzzer must detect *)

type spec = { injectors : injector list }

val parse_spec : string -> (spec, string) result
(** Errors read ["1:COL: message"], column 1-based. *)

val spec_to_string : spec -> string
(** Canonical rendering; [parse_spec (spec_to_string s) = Ok s] for any
    parseable [s]. *)

(** {1 Compiled schedule} *)

type action =
  | Offline of int  (** offline this many frames (migrate/reclaim off them) *)
  | Online of int   (** bring the most recently offlined frames back *)
  | Degrade_set of { latency : float; errors : float; wear : float }
  | Degrade_clear
  | Set_limits of {
      cg : string;
      low : int option;
      high : int option;
      max_limit : int option;
    }
  | Stall of { lo : int; hi : int; until : int }
  | Corrupt_frame

val events : spec -> capacity:int -> nthreads:int -> (int * action) list
(** Resolve amounts against [capacity] and thread ranges against
    [nthreads]; sorted by time, same-time actions in segment order. *)

val has_degrade : spec -> bool
(** Whether the machine needs to interpose {!Swapdev.Degraded_device}. *)

val churn_cgs : spec -> string list
(** Cgroup names referenced by churn segments, in segment order. *)

val action_injector : action -> string
(** Segment class of an action: ["hotplug"], ["degrade"], ... *)

val action_label : action -> string
(** Human label for the trace stream and audit context. *)

(** {1 Run summary} *)

type summary = {
  mutable s_events : int;
  mutable s_offlined : int;
  mutable s_onlined : int;
  mutable s_migrated : int;
  mutable s_evicted : int;
  mutable s_skipped : int;
  mutable s_limit_updates : int;
  mutable s_device_phases : int;
  mutable s_stalled_threads : int;
  mutable s_corrupted : int;
}

val fresh_summary : unit -> summary

val summary_to_string : summary -> string
(** One-line display of the tallies, [ev=2,off=168,...], as the chaos
    report prints it. *)
