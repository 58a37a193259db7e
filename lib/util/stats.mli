(** Descriptive statistics and confidence intervals.

    The paper reports "average latency ± confidence interval" at a 95%
    confidence level over 50 repetitions; this module provides exactly
    that computation (Student-t interval on the sample mean), plus the
    summaries used by the wider benchmark harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  ci95 : float;    (** half-width of the 95% confidence interval *)
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** [summarize xs] computes all summary statistics of the sample (the
    order statistics share a single sorted copy of the data).
    @raise Invalid_argument on an empty sample or a sample containing
    NaN. *)

val mean : float list -> float
val stddev : float list -> float
val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation.
    Sorts with [Float.compare].
    @raise Invalid_argument on an empty sample, a sample containing
    NaN, or [p] outside [\[0,1\]]. *)

val ci95_halfwidth : float list -> float
(** Half width of the 95% two-sided Student-t confidence interval for the
    mean. Returns 0 for samples of size < 2. *)

val t_critical_95 : int -> float
(** [t_critical_95 df] is the two-sided 97.5% quantile of Student's t
    distribution with [df] degrees of freedom (tabulated, interpolated,
    asymptotic 1.96 for large [df]). *)

(** Fixed-bin histogram over a closed range; used for phase-count and
    round-count distributions. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  val counts : t -> int array
  val total : t -> int
  val render : t -> width:int -> string
  (** ASCII rendering, one line per bin. *)
end
