(** Zipfian sampling in O(1) per draw.

    YCSB generates keys from a zipfian distribution (exponent ~0.99 over
    the item population); PageRank hub structure and TPC-H probe skew
    also use this sampler.  Implementation: Hörmann's
    rejection-inversion, the same algorithm behind Apache Commons'
    [RejectionInversionZipfSampler], fronted by a fixed guide table that
    answers most draws with one load and never changes a drawn rank. *)

type t

val create : n:int -> exponent:float -> t
(** Distribution over ranks [0 .. n-1] where rank [k] has probability
    proportional to [1 / (k+1)^exponent].

    O(2^14), independent of [n]: [create] builds a guide table of 2^14
    buckets over the 53-bit uniform draw [sample] takes (bucket [j]
    holds the draws whose top 14 bits are [j]).  A bucket stores rank
    [k - 1] only when the rejection-inversion candidates [x] at its
    first draw and at the next bucket's first draw both round to [k]
    within [1, n] (no clamping) and pass the squeeze test [k - x <= s],
    each by a relative margin of [1e-9] from the [k - 1/2], [k + 1/2]
    and [k - s] boundaries.  Exactness: the draw-to-[u] map is a
    product and a sum of correctly rounded operations, so it is
    monotone; the inverse integral is monotone to within a few ulps, far
    inside the margin; so every draw of the bucket yields a candidate
    between those two that rounds to [k] and is accepted on the squeeze,
    which is what the plain sampler returns for it.  Other
    buckets fall back to the rejection step.  Hit rates (share of draws
    answered by the table) run from ~40 % (e 0.8, n 28 K) through 53-62 %
    (e 0.99) to 76 % (e 1.2, n 393 K).

    [t] is never mutated after [create], so it is safe to share across
    domains, and it is shared: every [create] with the same [(n,
    exponent)] returns one [t], built once (at most 64 shapes are kept).
    @raise Invalid_argument when [n <= 0] or [exponent] is not positive
    and finite. *)

val sample : t -> Engine.Rng.t -> int
(** A rank in [0, n), 0 being the hottest.  Takes one [Engine.Rng.float]
    per candidate, exactly as the plain rejection-inversion sampler does,
    so the generator's stream is the same too. *)

val pmf : n:int -> exponent:float -> float array
(** The exact distribution {!create} samples from: element [k] is the
    probability of rank [k].  O(n); a reference for tests, never needed
    to sample.
    @raise Invalid_argument when [n <= 0]. *)
