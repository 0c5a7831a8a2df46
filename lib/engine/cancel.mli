(** Cooperative cancellation tokens.

    A token answers one question — "should this computation stop?" —
    through a caller-supplied probe.  The simulation loop ({!Sim.run})
    polls its token between events, which makes simulation-event
    granularity the cancellation latency: a trial is never torn mid
    event, so machine state stays consistent when a cancellation
    unwinds.

    The engine stays dependency-free: it never reads a clock itself.
    Deadline enforcement is built by the caller, e.g. a probe closing
    over [Unix.gettimeofday () +. timeout] (see [Runner]), typically
    rate-limited so the clock is not read on every event.

    Once a probe reports true the token {e latches}: every later
    {!cancelled} call returns true without consulting the probe again,
    so a flapping probe cannot un-cancel a run. *)

type t

exception Cancelled of string
(** Raised by cancellation-aware loops (e.g. {!Sim.run}) when their
    token fires; the payload is the token's {!reason}. *)

val never : t
(** The null token: {!cancelled} is always false.  Shared; do not
    {!cancel} it. *)

val of_probe : ?reason:string -> (unit -> bool) -> t
(** A token driven by [probe], polled by {!cancelled} until it first
    returns true.  [reason] (default ["cancelled"]) is carried by
    {!Cancelled}. *)

val cancelled : t -> bool
(** Whether the token has fired (probe returned true once, or
    {!cancel} was called). *)

val reason : t -> string

val check : t -> unit
(** Raise [Cancelled (reason t)] if the token has fired. *)
