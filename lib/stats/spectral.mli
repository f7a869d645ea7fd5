(** Spectral estimation.

    The raw periodogram is an inconsistent spectrum estimator (its
    variance does not shrink with the sample size); Welch's method —
    averaging modified periodograms of overlapping windowed segments —
    trades frequency resolution for consistency.  Alongside, the
    closed-form spectral densities of fGn (Paxson's approximation) and
    FARIMA(0, d, 0) for comparing estimates against theory.  Both
    estimators transform real data through {!Lrd_numerics.Fft.Real}. *)

type estimate = {
  frequencies : float array;  (** Angular frequencies in (0, pi]. *)
  power : float array;  (** Spectral density estimates. *)
  segments : int;  (** Number of averaged segments. *)
}

val periodogram : float array -> estimate
(** Raw periodogram at the Fourier frequencies of the (power-of-two
    padded) series, excluding frequency zero; normalized so that the
    integral over (-pi, pi] approximates the variance. *)

val welch :
  ?segment:int -> ?overlap:float -> float array -> estimate
(** Welch estimate with Hann-windowed segments of length [segment]
    (default [n / 8] rounded to a power of two, at least 64) and
    fractional [overlap] (default 0.5).  @raise Invalid_argument for
    series shorter than one segment or overlap outside [0, 1). *)

val fgn_spectrum : hurst:float -> float -> float
(** Approximate spectral density of unit-variance fGn at angular
    frequency [w] in (0, pi]: the Paxson finite-sum approximation of
    [c |w|^(1-2H)]-type density (sum over aliased terms, 3 terms plus
    tail correction). *)

val farima_spectrum : d:float -> float -> float
(** Exact spectral density of FARIMA(0, d, 0) with unit innovation
    variance: [(2 sin(w/2))^(-2d) / (2 pi)]. *)
