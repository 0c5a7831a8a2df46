(** Deterministic fault injection over any swap device.

    [wrap] decorates a {!Device.t} with a {!plan}: per-op error
    probabilities split into transient and permanent kinds, periodic
    error bursts (a worn flash block neighbourhood), periodic stall
    windows (firmware garbage collection), and a tail-latency multiplier
    applied to a random fraction of completions.  All randomness comes
    from the caller's seeded {!Engine.Rng.t}, so a faulty trial replays
    exactly.

    The wrapper never perturbs the inner device's queueing state beyond
    what the inner [submit] itself does: failed operations still occupy
    a channel (they ran and then failed), and stall/tail delays extend
    only the observed completion time. *)

type plan = {
  read_error_prob : float;   (** per-read error probability *)
  write_error_prob : float;  (** per-write error probability *)
  permanent_fraction : float;
      (** fraction of probabilistic errors that are permanent *)
  burst_every_ops : int;
      (** period of error bursts in ops; [<= 0] disables bursts *)
  burst_len_ops : int;
      (** ops at the start of each period that all fail *)
  burst_permanent : bool;    (** burst errors are permanent *)
  stall_every_ops : int;
      (** every this many ops, one completion stalls; [<= 0] disables *)
  stall_ns : int;            (** extra latency of a stalled completion *)
  tail_prob : float;         (** per-op probability of a latency spike *)
  tail_multiplier : float;
      (** observed-latency multiplier of a spiked completion *)
}

val none : plan
(** All injection disabled. *)

val is_none : plan -> bool
(** Whether the plan can never inject anything; callers skip wrapping
    entirely for such plans, keeping fault-free runs bit-identical. *)

val light : plan
(** Rare recoverable errors, occasional stalls, thin latency tail. *)

val heavy : plan
(** Dense permanent error bursts, frequent stalls, heavy tail — a dying
    device. *)

val plan_names : string list
(** ["none"; "light"; "heavy"]: the plans {!plan_of_name} knows. *)

val plan_of_name : string -> plan option

val wrap :
  plan:plan -> rng:Engine.Rng.t -> vmstat:Obs.Vmstat.t -> Device.t -> Device.t
(** Decorate a device.  Every injected event bumps one of [vmstat]'s
    [injected_transient], [injected_permanent], [injected_stalls] or
    [injected_tail_spikes] counters. *)
