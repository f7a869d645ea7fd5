(** Bounded numerical solver for the stationary loss rate of the finite
    buffer fluid queue (paper Section II, Proposition II.1).

    The queue occupancy at arrival epochs obeys
    [Q(n+1) = max(0, min(B, Q(n) + W(n)))] with i.i.d. increments.  Two
    discretized chains are iterated on a grid of [m] bins of width
    [d = B/m]: the floor chain starts empty and rounds down, the ceiling
    chain starts full and rounds up.  Their loss rates are monotone
    bounds on the true loss rate — the floor chain's increasing in both
    the iteration count and the grid resolution, the ceiling chain's
    decreasing — so the pair brackets the answer at every step.

    Each iteration is one linear convolution of the occupancy pmf with
    the discretized increment pmf (eq. 19) followed by folding the
    spill-over mass into the boundary states (eq. 20); the convolution
    uses a cached-kernel FFT plan, O(m log m) per step.

    The stopping protocol follows the paper: stop when the bounds come
    within [tolerance] (default 20%) of their midpoint, report zero when
    the upper bound falls below [negligible_loss] (default 1e-10), and
    when convergence stalls double the number of bins and continue from
    the current occupancy vectors (footnote 3's warm restart — old grid
    points are a subset of the new, so the bound property is kept). *)

type params = {
  initial_bins : int;  (** Starting grid resolution [m] (default 128). *)
  max_bins : int;  (** Refinement cap (default 16384). *)
  tolerance : float;
      (** Relative bound-gap target: stop when
          [upper - lower <= tolerance * (upper + lower) / 2].
          Default 0.2 as in the paper. *)
  negligible_loss : float;
      (** Report zero loss when the upper bound drops below this
          (default 1e-10, the paper's threshold). *)
  max_iterations : int;  (** Total iteration budget (default 200000). *)
  check_every : int;  (** Bound evaluation period (default 16). *)
  stall_factor : float;
      (** Refine the grid when a check period moves {e both} bounds by
          less than this relative fraction (default 0.02) — i.e. both
          chains have plateaued at the current resolution, so only a
          finer grid can close the remaining gap.  While either chain is
          still mixing (e.g. the ceiling chain draining a deep buffer),
          iteration continues at the cheap coarse resolution. *)
  warm_restart : bool;
      (** Keep the current occupancy vectors across grid refinements
          (footnote 3; default true).  [false] restarts the chains from
          empty/full on every refinement — the ablation baseline. *)
  convolution : [ `Auto | `Fft | `Direct ];
      (** Convolution strategy: [`Auto] (default) uses the FFT from 64
          bins upward, the explicit choices force one implementation
          (the FFT-vs-direct ablation). *)
}

val default_params : params

type result = {
  loss : float;  (** Midpoint of the final bounds; 0 if negligible. *)
  lower_bound : float;
  upper_bound : float;
  iterations : int;  (** Total chain iterations performed. *)
  bins : int;  (** Final grid resolution. *)
  refinements : int;  (** Number of grid doublings. *)
  converged : bool;
      (** True when the tolerance or negligible-loss criterion was met
          (false only when the iteration budget ran out). *)
}

val pp_result : Format.formatter -> result -> unit

module Workspace : sig
  type t
  (** A mutable per-resolution-level workspace: the occupancy pmfs of
      both chains as unboxed Bigarray vectors, one real-input FFT
      convolution plan per chain built from the discretized increment
      kernels ({!Lrd_numerics.Convolution.make_real_plan} — circular
      mod [2 m] with precomputed alias-fold tails when [m] is a fast
      size, linear on a {!Lrd_numerics.Fft.good_size} grid otherwise),
      the convolution output buffers, and the expected-overflow table
      (built in one batch by {!Workload.overflow_table}).  Everything
      is allocated once when the level is built; {!step} then advances
      both chains with {e zero heap allocation}, so iterating a level
      is FLOP-bound rather than GC-bound. *)

  val make :
    ?convolution:[ `Auto | `Fft | `Direct ] ->
    Workload.t ->
    buffer:float ->
    m:int ->
    t
  (** Builds the workspace for an [m]-bin grid with the chains at their
      initial states (floor chain empty, ceiling chain full).  [`Auto]
      picks FFT or direct convolution via
      {!Lrd_numerics.Convolution.prefer_fft}.  Each build is one
      [solver/workspace] trace slice (arg = [m]) on the calling domain
      and one sample of the [solver/workspace_seconds] span metric, so
      construction shows apart from iteration. *)

  val bins : t -> int
  (** The grid resolution [m]. *)

  val grid_step : t -> float
  (** The grid spacing [d = buffer / m]. *)

  val step : t -> unit
  (** One Lindley step (eqs. 19-20) for BOTH chains: a real-input FFT
      convolution per chain (each one half-size complex transform in,
      one out) followed by the boundary folds — aliased circular folds
      on the fast-size path, exact edge sums otherwise.  Performs no
      heap allocation. *)

  val losses : t -> norm:float -> float * float
  (** Current [(lower, upper)] loss-rate bounds (eq. 23). *)

  val lower_pmf : t -> float array
  (** Copy of the floor-chain occupancy pmf (length [m + 1]). *)

  val upper_pmf : t -> float array
  (** Copy of the ceiling-chain occupancy pmf. *)

  val refine_from : src:t -> t -> unit
  (** [refine_from ~src dst] seeds [dst]'s chains from [src]'s on a
      doubled grid (footnote 3's warm restart: old point [j d] is new
      point [2 j (d/2)], an exact re-indexing).
      @raise Invalid_argument unless [dst] has exactly twice the bins. *)
end
(** The solver's engine, exposed for benchmarks and for tests that pin
    the zero-allocation steady-state invariant with [Gc.minor_words]. *)

type occupancy = {
  step : float;  (** Grid spacing [d]; state [j] is occupancy [j * step]. *)
  lower_pmf : float array;
      (** Floor-chain occupancy pmf: a stochastic {e lower} bound on the
          stationary occupancy at arrival epochs. *)
  upper_pmf : float array;
      (** Ceiling-chain occupancy pmf: a stochastic {e upper} bound. *)
}
(** Bounds on the stationary queue-occupancy distribution {e at arrival
    epochs} (the paper solves the chain embedded at the points of the
    modulating renewal process; this is not the time-stationary
    occupancy, but it is exactly what the loss functional needs and a
    natural state descriptor).  Both arrays have length
    [bins + 1] and sum to 1. *)

val mean_occupancy : occupancy -> float * float
(** Bounds [(lower, upper)] on the mean occupancy (work units). *)

val occupancy_ccdf : occupancy -> threshold:float -> float * float
(** Bounds on [Pr{Q >= threshold}] — the overflow-probability analogue
    of the paper's footnote 2. *)

val occupancy_quantile : occupancy -> p:float -> float * float
(** Bounds on the [p]-quantile of the occupancy, [p] in (0, 1]. *)

val mean_virtual_delay : occupancy -> service_rate:float -> float * float
(** Bounds on the virtual waiting time [Q / c] at epoch starts, in
    seconds: what a fluid atom arriving at an epoch boundary waits. *)

module State : sig
  type t
  (** A pausable solve: the classic iterate / check / refine loop of
      {!solve} driven in caller-controlled slices.  Bounds are checked
      after every [check_every]-th chain step regardless of how the
      steps were grouped into {!advance} calls, so the event sequence —
      and therefore every computed bit — depends only on the total
      iteration count: suspending and resuming a cell is exact.
      {!solve} itself runs on a [State], so an uninterrupted state
      reproduces it by construction.

      A state is single-threaded (advance it from one domain at a
      time), but successive slices may run on {e different} domains —
      what a sweep scheduler needs. *)

  val create :
    ?params:params ->
    ?cache:Workload.Cache.t * string ->
    ?trace_levels:bool ->
    Model.t ->
    service_rate:float ->
    buffer:float ->
    t
  (** A fresh cold state (floor chain empty, ceiling chain full; the
      workspace itself is built lazily on the first {!advance}).
      Trivial cells — zero buffer, or a workload that can never exceed
      the service rate — are born {!finished} with their closed-form
      result.  [trace_levels] (default [false]) emits the
      [solver/level] begin/end timeline slices; leave it off unless
      every slice of this state runs on one domain (Chrome B/E events
      must balance per track).  [cache] as in {!solve}.
      @raise Invalid_argument on nonpositive service rate or negative
      buffer (same messages as {!solve}). *)

  val create_utilization :
    ?params:params ->
    ?cache:Workload.Cache.t * string ->
    ?trace_levels:bool ->
    Model.t ->
    utilization:float ->
    buffer_seconds:float ->
    t
  (** {!create} with the {!solve_utilization} conventions:
      [c = mean_rate / utilization], [buffer = buffer_seconds * c]. *)

  val advance : t -> iterations:int -> unit
  (** Run up to [iterations] further chain steps, checking bounds (and
      refining the grid) at exactly the points the uninterrupted solve
      would.  Stops early when a check finishes the state.  No-op on a
      finished state.  @raise Invalid_argument when [iterations] is
      negative. *)

  val run : t -> unit
  (** Advance until finished — the uninterrupted solve. *)

  val finished : t -> bool
  (** No further work: converged, budget exhausted, stalled at
      [max_bins], or {!stop}ped. *)

  val converged : t -> bool
  (** The tolerance or negligible-loss criterion was met. *)

  val iterations : t -> int
  val refinements : t -> int

  val bins : t -> int
  (** Current grid resolution; for a state seeded by {!seed_from} and
      not yet advanced, the resolution its workspace will be built at
      (the source's). *)

  val bounds : t -> float * float
  (** [(lower, upper)] loss bounds at the latest check — [(nan, nan)]
      before the first check of a non-trivial state. *)

  val gap_rel : t -> float
  (** Relative bound gap [(upper - lower) / midpoint] at the latest
      check: the paper's stopping ratio, and a scheduler's priority.
      [infinity] before the first check (fresh cells sort first), [0]
      once the loss is known negligible. *)

  val warm_started : t -> bool
  (** Whether {!seed_from} succeeded on this state. *)

  val seed_from : src:t -> t -> bool
  (** [seed_from ~src t] warm-starts [t] from a neighbouring cell:
      [t] adopts [src]'s current resolution and both of its occupancy
      pmfs as initial conditions, skipping the refinement ladder and
      most of the mixing time.  Legal only when the occupancy grids
      (nearly) coincide — buffers within a 25% relative tolerance, so a
      mean-preserving marginal scaling whose zero-clamp nudged the
      service rate still seeds — with [src]'s bins within [t]'s
      [max_bins] and [t] fresh (never advanced); returns [false] —
      leaving [t] cold — otherwise, or for trivial cells.

      The call only records [src]'s workspace, which must not be
      advanced again ([src] is finished, so it is not).  [t]'s own
      workspace is built, the pmfs copied and the step-zero bounds
      evaluated in [t]'s first {!advance} (or {!stop}) — on whichever
      domain runs it — and counted in [solver/workspaces_seeded].

      Certification: the seed carries no bound semantics (it is just an
      initial distribution), and a warm-started chain may approach its
      stationary value from either side — so a warm-started state only
      accepts a convergence criterion once both chains have {e also}
      plateaued (within [stall_factor]), i.e. they sit at their
      stationary values, which bound the true loss regardless of the
      initial state.  Cold states are unaffected bit for bit. *)

  val stop : t -> unit
  (** Finish the state now, keeping its latest certified bounds (after
      evaluating them once if the state never reached a check).  The
      result reports [converged = false]: the cell was cut off by
      policy, not by its own criterion.  Idempotent. *)

  val result : t -> result
  (** The result so far; meaningful once {!finished} (before the first
      check the bounds are [nan]). *)

  val detailed : t -> result * occupancy
  (** {!result} plus the current occupancy bounds, as
      {!solve_detailed}. *)
end
(** The resumable core of {!solve}, exposed for sweep schedulers
    ({!Lrd_experiments.Sweep.scheduled_surface}) that interleave many
    cells, warm-start neighbours and allocate iterations globally. *)

val solve :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  service_rate:float ->
  buffer:float ->
  result
(** Loss rate of the queue with the given service rate and buffer fed by
    the model.  [buffer = 0] returns the closed form
    {!Workload.zero_buffer_loss} directly.

    [cache] is a {!Workload.Cache} plus a key identifying [model] within
    it: cells of a sweep that pass the same key share one memoizing
    workload (and hence one set of survival memo tables) instead of
    re-deriving it per cell.  The key must be injective over the models
    the sweep solves.  Without a cache the solve still memoizes its own
    survival evaluations, which refinement levels reuse.  Caching never
    changes any computed value.
    @raise Invalid_argument on nonpositive service rate or negative
    buffer. *)

val solve_detailed :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  service_rate:float ->
  buffer:float ->
  result * occupancy
(** Like {!solve}, additionally returning the final occupancy bounds.
    With [buffer = 0] the occupancy is the degenerate point mass at 0
    on a single-state grid. *)

val solve_utilization :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  utilization:float ->
  buffer_seconds:float ->
  result
(** Convenience wrapper used by all experiments: the service rate is
    [mean_rate / utilization] and the buffer is [buffer_seconds * c]
    (the paper's "normalized buffer size" in seconds). *)

type snapshot = {
  iteration : int;
  lower_pmf : float array;  (** Floor-chain occupancy pmf (length m+1). *)
  upper_pmf : float array;  (** Ceiling-chain occupancy pmf. *)
  lower_loss : float;
  upper_loss : float;
}

val iterate_snapshots :
  Model.t ->
  service_rate:float ->
  buffer:float ->
  bins:int ->
  at:int list ->
  snapshot list
(** Runs both chains at a fixed resolution and captures the occupancy
    pmfs and loss bounds at the requested iteration counts (Fig. 2 shows
    these for n = 5, 10, 30 at m = 100).  The list must be sorted
    ascending.  @raise Invalid_argument otherwise. *)
