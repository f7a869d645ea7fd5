(** Anick–Mitra–Sondhi: the exact spectral solution of a fluid queue fed
    by N independent exponential on/off sources.

    This is the canonical {e Markovian} fluid-queue result the paper's
    surrounding literature builds on (Elwalid et al.; Li & Hwang): the
    modulating process is a birth–death chain on the number of ON
    sources, and the stationary joint distribution
    [F_j(x) = Pr{J = j, Q <= x}] of an {e infinite} buffer satisfies
    [dF/dx D = F M] with [D = diag(j r - c)] and [M] the generator, so

    [F(x) = pi + sum_(z_k < 0) a_k e^(z_k x) phi_k]

    where [(z_k, phi_k)] solve the tridiagonal eigenproblem
    [z phi D = phi M] and the coefficients come from the boundary
    conditions [F_j(0) = 0] at the up-drift states.  Eigenvalues are
    found as sign changes of the (rescaled) tridiagonal determinant
    recurrence and polished by bisection; coefficients via LU.

    Uses within this repository: an exact analytic oracle for the fluid
    simulator; and the overflow probability [Pr{Q > b}] is the paper's
    footnote-2 upper bound on the loss rate of the corresponding
    finite-buffer queue. *)

type t

val create :
  sources:int ->
  on_rate:float ->
  lambda:float ->
  mu:float ->
  service_rate:float ->
  t
(** [sources] independent on/off sources, each emitting [on_rate] while
    ON, turning ON at rate [lambda] and OFF at rate [mu]; served at
    [service_rate].  Requirements checked: all parameters positive; the
    system stable ([mean rate < service_rate]); at least one state with
    positive drift ([sources * on_rate > service_rate], otherwise the
    queue is trivially empty); and no state with exactly zero drift
    ([j * on_rate <> service_rate] for all [j]).
    @raise Invalid_argument otherwise. *)

val mean_rate : t -> float
(** [sources * on_rate * lambda / (lambda + mu)]. *)

val utilization : t -> float

val stationary : t -> float array
(** Binomial distribution of the number of ON sources. *)

val negative_eigenvalues : t -> float array
(** The stable spectrum, sorted ascending (most negative first); one
    eigenvalue per positive-drift state. *)

val overflow_probability : t -> level:float -> float
(** [Pr{Q > level}] for the infinite buffer; at [level <= 0] this is the
    probability the queue is nonempty. *)

val all_eigenvalues : t -> float array
(** The complete spectrum of the pencil [z phi D = phi M], sorted
    ascending: one negative eigenvalue per positive-drift state, zero,
    and one positive eigenvalue per each remaining negative-drift state
    but one. *)

val finite_buffer_loss : t -> buffer:float -> float
(** The {e exact} stationary loss rate of the finite buffer [B]: the
    spectral expansion now uses the full spectrum, with boundary
    conditions [F_j(0) = 0] at up-drift states and [F_j(B) = pi_j] at
    down-drift states; the loss rate is
    [sum_(up j) d_j (pi_j - F_j(B)) / mean rate] (work overflows at
    rate [d_j] exactly while the buffer is full in an up state).
    Positive-eigenvalue modes are parameterized as [e^(z (x - B))] so
    the boundary system stays well conditioned for large buffers.
    @raise Invalid_argument unless [buffer > 0]. *)

val sample_epochs :
  t -> Lrd_rng.Rng.t -> n:int -> float array * float array
(** Exact CTMC sample path of the aggregate rate: [n] epochs as
    [(rates, holding times)] — epoch [i] holds rate [rates.(i)] for an
    exponential time [holding_times.(i)] — started from the stationary
    distribution, for Monte Carlo validation of the spectral result. *)
