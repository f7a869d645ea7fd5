(** Empirical autocovariance and autocorrelation.

    Used to verify that (a) the model's rate process has the covariance of
    eq. 8, (b) external shuffling kills correlation beyond the block
    length (Fig. 6), and (c) synthetic traces carry the intended LRD.

    The entry points pick between the direct O(n * max_lag) loop and
    the Wiener–Khinchin path ({!Half_spectrum.power} and one real
    inverse transform on the calling domain's cached plan) by the
    centralized crossover
    ({!Lrd_numerics.Convolution.prefer_fft_fixed}); both are exact, so
    the choice is invisible beyond speed. *)

val autocovariance : float array -> max_lag:int -> float array
(** Biased estimator [g(k) = (1/n) sum (x_i - m)(x_{i+k} - m)] for
    [k = 0 .. max_lag].  The biased (1/n) normalization keeps the
    estimated covariance sequence positive semi-definite.  Computed via
    the FFT (Wiener-Khinchin, O(n log n)) when [max_lag] is large enough
    to pay for the fixed-size transform, and by {!autocovariance_direct}
    otherwise — in particular tiny lag counts ([max_lag <= 2] at any
    length) always take the direct path.
    @raise Invalid_argument if [max_lag < 0] or [max_lag >= length]. *)

val autocovariance_direct : float array -> max_lag:int -> float array
(** O(n * max_lag) reference implementation (test oracle, and the fast
    path for small lag counts). *)

val autocorrelation : float array -> max_lag:int -> float array
(** Autocovariance normalized by lag 0; [r.(0) = 1].
    @raise Invalid_argument additionally when the series is constant. *)
