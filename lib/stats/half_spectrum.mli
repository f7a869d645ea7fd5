(** The spectral estimators' one transform: the power half-spectrum of
    a demeaned, zero-padded real series, computed through
    {!Lrd_numerics.Fft.Real}. *)

val power : size:int -> float array -> float array
(** [power ~size x] is [|X_k|^2] for [k = 0 .. size/2], where [X] is the
    size-[size] DFT of [x] minus its mean, zero-extended.  Runs on the
    calling domain's {!Lrd_numerics.Fft.Real.cached_plan}, so it
    composes with {!Lrd_parallel.Pool} without locks.
    @raise Invalid_argument if [size] is below the series length or is
    not a real-transform size. *)
