(** Request latencies, the one format every reader shares: integer
    nanoseconds buffered in push order, sealed once into an ascending
    [int array] with one element per request.  Quantile readers index a
    sealed array without a copy or a sort, pooling merges sealed arrays,
    and the journal writes them as [value:count] runs. *)

type t

val create : unit -> t
(** An empty buffer with room for 1024 latencies; it doubles when full,
    so a push allocates nothing between growths. *)

val push : t -> int -> unit
(** @raise Invalid_argument on a negative latency. *)

val seal : t -> int array
(** Every latency pushed since [create] or the last [seal], ascending,
    in a fresh array; the buffer is left empty. *)

val merge : int array list -> int array
(** The ascending union (repeats kept) of ascending arrays, merged
    linearly in pairs.  A one-element list returns its array. *)
