(** Request latencies, the one format every reader shares: integer
    nanoseconds buffered in push order and sealed once.  A trial seals
    its buffer into an ascending [int array] with one element per
    request; everything that keeps latencies past the trial (the
    runner's store, the journal, the per-cgroup reports) keeps them as
    {!runs}, ascending distinct values with their counts.  Quantile
    readers read either form by rank without a copy or a sort
    ({!Stats.Percentile}), pooling is {!merge}, and the journal writes
    runs as [value:count] text. *)

type t

val create : unit -> t
(** An empty buffer with room for 1024 latencies; it doubles when full,
    so a push allocates nothing between growths. *)

val push : t -> int -> unit
(** @raise Invalid_argument on a negative latency. *)

val seal : t -> int array
(** Every latency pushed since [create] or the last [seal], ascending,
    in a fresh array; the buffer is left empty. *)

(** {1 Runs} *)

type runs
(** An immutable multiset of latencies: its distinct values ascending,
    each with how often it occurs, as LEB128 [(delta, count)] pairs.
    The encoding is canonical, so two [runs] of the same multiset are
    equal under [=].  The total count never exceeds
    [Sys.max_array_length], so {!to_array} always fits. *)

val empty : runs

val of_sorted : int array -> runs
(** The runs of an ascending array of non-negative latencies (a sealed
    one).  @raise Invalid_argument if it descends anywhere or holds a
    negative value. *)

val of_runs : (int * int) list -> runs
(** From [(value, count)] pairs: values strictly ascending from 0 up,
    every count at least 1.  @raise Invalid_argument otherwise, or when
    the counts sum past [Sys.max_array_length]. *)

val seal_runs : t -> runs
(** [of_sorted (seal l)]: the buffer sealed straight into runs. *)

val count : runs -> int
(** How many latencies (requests) the runs hold. *)

val sum : runs -> int
(** The exact integer sum of every latency. *)

val fold : ('a -> int -> int -> 'a) -> 'a -> runs -> 'a
(** [fold f init r] is [f (... (f init v1 c1) ...) vk ck] over the runs
    [(v1, c1) ... (vk, ck)], values ascending. *)

val rank_reader : runs -> int -> int
(** [rank_reader r] reads [r] by rank: applied to [i] in [0, count r)
    it returns the [i]-th smallest latency, repeats counted.  The
    reader keeps its place, so reads at rising ranks cost one pass over
    the runs in all; a lower rank restarts from the smallest value.
    @raise Invalid_argument on a rank outside [0, count r). *)

val merge : runs list -> runs
(** The union (repeats kept) of every list element, merged in pairs.
    @raise Invalid_argument when the counts sum past
    [Sys.max_array_length]. *)

val to_array : runs -> int array
(** Every latency, ascending, one element per request: the array the
    runs were built from.  For tests and digest pins; no reader needs
    it. *)
