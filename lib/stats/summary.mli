(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  variance : float;  (** unbiased sample variance (0 when [n < 2]) *)
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

val of_array : float array -> t
(** @raise Invalid_argument on an empty array. *)

val of_list : float list -> t

val of_ints : int array -> t

val cv : t -> float
(** Coefficient of variation, [stddev / mean] (0 when the mean is 0). *)

val spread : t -> float
(** [max / min]: the paper's "factor between fastest and slowest
    execution" (infinite when [min = 0]). *)
