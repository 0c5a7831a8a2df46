(** Deterministic pseudo-random number generation.

    Every source of nondeterminism in a trial (workload draws, graph
    structure, Bloom-filter hash seeds, scheduling jitter, device timing)
    is driven by streams derived from a single trial seed, which makes
    trials exactly reproducible: the simulator's analogue of the paper's
    reboot-per-execution protocol.

    The generator is xoshiro256++ seeded through SplitMix64.  [split]
    derives statistically independent child streams, so subsystems never
    share a stream and adding draws in one subsystem does not perturb
    another. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val reseed : t -> int -> unit
(** [reseed t seed] overwrites [t] with the state [create seed] builds,
    so [t] then draws exactly the stream a fresh [create seed] would. *)

val split : t -> t
(** Derive an independent child generator.  Advances the parent. *)

val copy : t -> t
(** Duplicate the exact current state. *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate (Box–Muller). *)

val jitter : t -> float -> float
(** [jitter t eps] is uniform in [1 - eps, 1 + eps]; multiply a duration
    by it to model timing noise. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
