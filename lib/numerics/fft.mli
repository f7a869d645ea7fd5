(** Planned complex and real-input fast Fourier transforms.

    The transform operates in place on a pair of arrays holding the real
    and imaginary parts.  The forward transform computes
    [X_k = sum_n x_n exp(-2 i pi k n / N)]; the inverse transform
    includes the [1/N] normalization so that the inverse undoes the
    forward transform up to rounding.

    The complex API ({!make_plan}, {!make_any_plan}, {!forward_ip},
    {!inverse_ip}) precomputes the
    twiddle-factor tables once and then transforms caller-owned buffers
    with zero heap allocation per call.  It is the core of {!Real} and,
    with {!dft_naive}, the tests' oracle.

    {!Real} transforms real-valued signals of even fast length through
    one half-size complex transform, producing the half-spectrum
    [X_0 .. X_{n/2}] that conjugate symmetry completes.  Every real
    signal in the library — solver convolutions, superposition, trace
    synthesis and the spectral estimators — goes through it. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] is [true] iff [n] is a positive power of two. *)

val next_power_of_two : int -> int
(** [next_power_of_two n] is the smallest power of two [>= max 1 n]. *)

val is_fast_size : int -> bool
(** True iff [n] is of the form [2^a * f] with [f] in [{1, 3, 5, 15}] —
    the sizes served by the mixed-radix engine without Bluestein. *)

val good_size : int -> int
(** [good_size n] is the cheapest fast size [>= max 1 n] under a
    measured per-point cost model (odd-radix split stages cost a few
    percent per point over the pure power-of-two butterflies, so a
    slightly larger power of two can beat e.g. a [15 * 2^k] grid).
    Consecutive fast sizes are within 25% of each other, so
    near-power-of-two grids stop paying the 2x padding penalty. *)

type vec =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed float vectors shared with the solver's Bigarray state. *)

type plan
(** Precomputed twiddle factors (plus, beyond powers of two, decimation
    scratch) for one transform size.  Power-of-two plans are immutable
    and can be shared freely; plans from {!make_any_plan} for other
    sizes own scratch buffers and must not be used concurrently. *)

val make_plan : int -> plan
(** [make_plan n] builds a plan for size-[n] transforms.  Cost is
    [O(n)] including [n - 1] trigonometric evaluations; every factor is
    computed by a direct cos/sin call, so planned transforms avoid the
    error-accumulating recurrence of a twiddle-on-the-fly butterfly.
    @raise Invalid_argument unless [n] is a power of two. *)

val make_any_plan : int -> plan
(** [make_any_plan n] builds a plan for any positive [n]: a radix-2
    plan when [n] is a power of two, a mixed-radix plan peeling odd
    radices 3 and 5 when {!is_fast_size}, and a Bluestein (chirp-z)
    plan over a power-of-two grid [>= 2 n - 1] otherwise.  Non-power-
    of-two plans own scratch and must not be shared across domains. *)

val size : plan -> int
(** The transform size the plan was built for. *)

val forward_ip : plan -> re:float array -> im:float array -> unit
(** In-place forward transform using the plan's tables.  Performs no
    heap allocation.  @raise Invalid_argument if the array lengths do
    not match the plan size. *)

val inverse_ip : plan -> re:float array -> im:float array -> unit
(** In-place inverse transform with [1/N] normalization; allocation-free
    like {!forward_ip}.  @raise Invalid_argument as for {!forward_ip}. *)

val dft_naive : re:float array -> im:float array -> float array * float array
(** Direct O(N^2) discrete Fourier transform of the given complex signal,
    returned as fresh arrays.  Any length is accepted.  Intended as a test
    oracle for {!forward_ip} and {!Real}. *)

(** Real-input transforms via the pack-real trick: a real signal of
    even fast length [n] is transformed by one complex FFT of size
    [n/2] plus an O(n) split pass, about half the work of a padded
    complex transform.  Only the half-spectrum [X_0 .. X_{n/2}] is
    produced/consumed; the upper half is its conjugate mirror.  Plans
    own scratch and must not be used concurrently. *)
module Real : sig
  type t

  val make_plan : int -> t
  (** [make_plan n] plans real transforms of size [n].
      @raise Invalid_argument unless [n] is even and [n/2] satisfies
      {!is_fast_size}. *)

  val cached_plan : int -> t
  (** Per-domain memoized {!make_plan}: real plans hold mutable
      scratch, so the memo table lives in domain-local storage and
      never shares a plan between domains. *)

  val size : t -> int
  (** The signal length [n]. *)

  val spectrum_length : t -> int
  (** [n/2 + 1], the number of independent spectrum bins. *)

  val forward_ip :
    t ->
    signal:float array ->
    len:int ->
    spec_re:float array ->
    spec_im:float array ->
    unit
  (** Transform [signal.(0 .. len - 1)], implicitly zero-extended to
      the plan size, into the half-spectrum [spec_re/spec_im.(0 ..
      n/2)].  Allocation-free.  @raise Invalid_argument if [len]
      exceeds the plan size or a buffer is too short. *)

  val inverse_ip :
    t ->
    spec_re:float array ->
    spec_im:float array ->
    signal:float array ->
    len:int ->
    unit
  (** Inverse of {!forward_ip} with [1/n] normalization, writing the
      first [len] samples of the reconstructed signal. *)

  val synthesize_ip :
    t ->
    spec_re:float array ->
    spec_im:float array ->
    signal:float array ->
    len:int ->
    unit
  (** [synthesize_ip] evaluates the UNnormalized sum
      [y_j = sum_k X_k exp(-2 i pi j k / n)] of a Hermitian spectrum
      given by its half [X_0 .. X_{n/2}] — the Davies–Harte synthesis
      step — writing the first [len] samples. *)

  val forward_big :
    t -> signal:vec -> len:int -> spec_re:float array -> spec_im:float array -> unit
  (** {!forward_ip} reading the signal from a Bigarray vector. *)

  val inverse_big :
    t -> spec_re:float array -> spec_im:float array -> signal:vec -> len:int -> unit
  (** {!inverse_ip} writing the signal into a Bigarray vector. *)
end
