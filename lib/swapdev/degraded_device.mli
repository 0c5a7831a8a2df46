(** Runtime swap-device degradation — the chaos [degrade] injector.

    Unlike {!Faulty_device}, whose failure plan is fixed at wrap time,
    this decorator reads a mutable {!knobs} block on every submit, so a
    simulated-time scheduler can ramp latency, inject transient error
    windows, and wear blocks out permanently mid-run.  Neutral knobs are
    exact identities — no RNG draw, no completion rewrite — so a wrapped
    device with no active transient behaves byte-identically to the
    unwrapped one. *)

type knobs = {
  mutable latency_mult : float;  (** service-time stretch; 1.0 = none *)
  mutable error_prob : float;    (** per-op transient failure probability *)
  mutable wear_prob : float;     (** per-op permanent failure probability *)
}

val neutral : unit -> knobs
(** Fresh identity knobs: [latency_mult = 1.0], both probabilities 0. *)

val wrap : knobs:knobs -> rng:Engine.Rng.t -> Device.t -> Device.t
(** Decorate a device.  [rng] must be dedicated to this wrapper (the
    machine derives it from the seed rather than splitting the main
    stream), and is only consulted while an error or wear window is
    open. *)
