(** Synthetic power-law graphs in implicit CSR form.

    In-degrees follow a zipfian law over a per-trial random permutation
    of vertex ids (so which thread owns the hubs varies across trials,
    like real graph orderings), and each vertex's in-neighbour list is
    regenerated deterministically on demand — the simulator only needs
    to know which rank pages a vertex's gather touches, so the edge list
    is never materialized.

    The degree skew is what gives PageRank the paper's signature
    behaviour: per-thread work varies with vertex degree, so iteration
    time is governed by straggler threads rather than total work
    (§V-B). *)

type t

type config = {
  n : int;               (** vertices *)
  avg_degree : int;
  deg_exponent : float;  (** zipf exponent of the in-degree law *)
  target_exponent : float;
      (** zipf exponent used when sampling neighbour endpoints *)
}

val generate : ?config:config -> seed:int -> unit -> t
(** @raise Invalid_argument when [n] or [avg_degree] is not positive, or
    [deg_exponent] is not positive and finite (the degree pass stops
    evaluating the power law once its strictly decreasing term makes
    every later degree 1). *)

val n : t -> int

val m : t -> int
(** Total edges (sum of in-degrees). *)

val degree : t -> int -> int

val offset : t -> int -> int
(** Prefix sum of degrees: index of vertex [v]'s first edge; [offset t
    (n t)] = [m t]. *)

val max_degree : t -> int

val iter_in_neighbors : t -> rng:Engine.Rng.t -> int -> (int -> unit) -> unit
(** [iter_in_neighbors t ~rng v f] streams vertex [v]'s in-neighbours;
    deterministic for a given [(seed, v)].  [rng] is caller-owned
    scratch: it is reseeded to [v]'s stream on entry, so one generator
    serves every vertex and whatever it held before is discarded. *)
