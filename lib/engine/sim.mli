(** Discrete-event simulation driver.

    Time is virtual, in integer nanoseconds.  Events are closures; the
    loop pops them in [(time, insertion order)] order, so a trial with a
    fixed seed replays identically. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val schedule : t -> delay:int -> (t -> unit) -> unit
(** Run the closure [delay] ns from now.  Negative delays are clamped to
    zero. *)

val schedule_at : t -> time:int -> (t -> unit) -> unit
(** Run the closure at an absolute time, clamped to be no earlier than
    [now]. *)

val pending : t -> int
(** Number of scheduled events not yet executed. *)

val events : t -> int
(** Number of events {!run} has executed so far, over every call.  A
    diagnostic for tuning the event count per request; no result or
    output reads it. *)

val run : ?until:int -> ?cancel:Cancel.t -> t -> unit
(** Execute events until the queue drains or virtual time would exceed
    [until].  Safe to call again after it returns.

    [cancel] is polled between events (simulation-event granularity —
    the in-flight event always finishes); a fired token raises
    {!Cancel.Cancelled}, leaving undrained events in the queue. *)

val stop : t -> unit
(** Make the current [run] return after the in-flight event finishes. *)
