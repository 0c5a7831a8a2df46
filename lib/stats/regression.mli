(** Ordinary least squares for two variables.

    The paper regresses execution time on page-fault count and reports
    r² > 0.98 for TPC-H on SSD swap (§V-A); {!fit} reproduces that
    analysis. *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;       (** coefficient of determination *)
  n : int;
  pearson : float;  (** correlation coefficient, signed *)
}

val fit : x:float array -> y:float array -> fit
(** @raise Invalid_argument when the arrays differ in length or hold
    fewer than 2 points.  When x has zero variance the slope is 0 and
    r² is 0. *)

val predict : fit -> float -> float
