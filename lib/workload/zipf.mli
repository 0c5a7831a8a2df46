(** Zipfian sampling in O(1) per draw.

    YCSB generates keys from a zipfian distribution (exponent ~0.99 over
    the item population); PageRank hub structure and TPC-H probe skew
    also use this sampler.  Implementation: Hörmann's
    rejection-inversion, the same algorithm behind Apache Commons'
    [RejectionInversionZipfSampler] — no per-element tables, constant
    expected time per sample. *)

type t

val create : n:int -> exponent:float -> t
(** Distribution over ranks [0 .. n-1] where rank [k] has probability
    proportional to [1 / (k+1)^exponent].  O(1): [t] holds a few
    constants, is never mutated, and so is safe to share across
    domains.
    @raise Invalid_argument when [n <= 0] or [exponent <= 0]. *)

val sample : t -> Engine.Rng.t -> int
(** A rank in [0, n), 0 being the hottest. *)

val pmf : n:int -> exponent:float -> float array
(** The exact distribution {!create} samples from: element [k] is the
    probability of rank [k].  O(n); a reference for tests, never needed
    to sample.
    @raise Invalid_argument when [n <= 0]. *)
