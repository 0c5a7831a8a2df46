(** Quantiles and tail-latency extraction.

    The paper reports request latency distributions up to the 99.99th
    percentile (Figures 3, 8, 12); these helpers compute them with linear
    interpolation between order statistics of an ascending array, one
    formula for floats and integer latencies alike. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted xs q] with [xs] already ascending and [q] in
    [0, 1].  @raise Invalid_argument on an empty array or [q] outside
    [0, 1]. *)

val quantile_ns : int array -> float -> float
(** {!quantile_sorted} over ascending integer nanoseconds (a sealed
    {!Structures.Latencies} array); exact while values stay below
    2^53. *)

val quantile_runs : Structures.Latencies.runs -> float -> float
(** {!quantile_ns} over latency runs, read by rank without expanding
    them: bit-identical to [quantile_ns] on the array the runs hold. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] of a small unsorted sample (a cell's trials):
    sorts a copy with [Array.sort Float.compare]. *)

type tail = {
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  p9999 : float;
  max : float;
}
(** The latency landmarks plotted in the paper's tail figures. *)

val tail_of : int array -> tail
(** The landmarks of an ascending, non-empty latency array. *)

val tail_of_runs : Structures.Latencies.runs -> tail
(** {!tail_of} over non-empty latency runs, bit for bit. *)

val pp_tail : Format.formatter -> tail -> unit
