(** The per-epoch work increment [W = T (lambda - c)] and its exact
    discretizations (paper eqs. 10, 21, 22).

    [W] is the difference between arriving and departing work over one
    interarrival interval.  The solver's floor chain needs the bin masses
    [Pr{W in [i d, (i+1) d)}] (eq. 21) and the ceiling chain
    [Pr{W in ((i-1) d, i d]}] (eq. 22); since [W] mixes atoms (from the
    truncated interarrival law) with continuous parts, both the strict and
    weak survival functions of [W] are computed from the interarrival
    law's, so every atom lands on the provably-safe side of each bin
    boundary and the bound property of Proposition II.1 carries over to
    floating point. *)

type t
(** The increment distribution for a given model, service rate and buffer
    discretization. *)

val create : ?memoize:bool -> Model.t -> service_rate:float -> t
(** [memoize] (default false) attaches mutex-guarded memo state to the
    survival-function evaluations behind [discretize],
    [overflow_table] and [expected_overflow]: scalar tables keyed by
    evaluation point, plus whole-grid level caches for the batch
    builders.  Because a refinement level at [2 m] bins evaluates a
    superset of its [m]-bin parent's points (the grid step halves
    exactly in floating point), a memoizing workload re-quantizes each
    new refinement level at roughly half cost — and the batch builders
    reuse the parent level wholesale, skipping per-point lookups;
    sharing one memoizing workload across the cells of a sweep (see
    [Cache]) extends the reuse across cells.  The batch builders hold
    the lock only to read the cached level and to install a new one:
    fresh points are computed outside it, so several domains build
    levels of one shared workload side by side (two racing on the same
    level may both compute it).  Memoization never changes any computed
    value — only whether it is recomputed — and is safe to use from
    several domains at once.
    @raise Invalid_argument unless the service rate is positive. *)

val mean : t -> float
(** E[W] = E[T] (mean_rate - c). *)

val survival_ge : t -> float -> float
(** [Pr{W >= x}]. *)

val survival_gt : t -> float -> float
(** [Pr{W > x}]. *)

val max_increment : t -> float
(** Supremum of [W]'s support ([T_c * (lambda_max - c)] for a truncated
    law); [infinity] for an unbounded law with rates above [c]; [<= 0]
    when no rate exceeds the service rate (a queue that never grows). *)

val expected_overflow : t -> buffer:float -> occupancy:float -> float
(** [E[W_l | Q = x]] with [W_l = (W - (B - Q))^+]: the expected work lost
    in one interval starting from occupancy [x] (the closed-form display
    after eq. 14, generalized to any interarrival law through its
    integrated survival function).
    @raise Invalid_argument unless [0 <= occupancy <= buffer]. *)

val overflow_table : t -> buffer:float -> bins:int -> float array
(** The solver's overflow table in one batch: entry [j] of the returned
    [bins + 1]-length array is
    [expected_overflow ~buffer ~occupancy:(min buffer (j *. d))] for
    [d = buffer / bins], bitwise.  The table is built rate-major: one
    batch [survival_integrals] call of the interarrival law per rate
    above the service rate, then a Neumaier step per point into unboxed
    accumulators, with the terms in the scalar path's order — no boxed
    float per rate and point.  The survival grid behind {!discretize} is
    built the same way from [survival_pair].  On a memoizing workload
    the finest table computed for the buffer is cached, so each
    doubling of a refinement chain only evaluates the new odd points and
    coarser levels are answered by striding; the points are computed
    outside the memo lock and installed under it.  The returned array
    is fresh; mutating it never corrupts the cache.
    @raise Invalid_argument unless buffer and bins are positive. *)

val loss_rate_of_occupancy :
  t -> buffer:float -> occupancy_probs:float array -> float
(** Eq. 23: [sum_i q(i) E[W_l | Q = i d] / (mean_rate E[T])] for an
    occupancy pmf on the uniform grid [i d = i buffer / (n - 1)],
    [i = 0 .. n-1]. *)

val zero_buffer_loss : t -> float
(** Closed form for [B = 0]: [E[(lambda - c)^+] / mean_rate] — a test
    oracle independent of the iteration. *)

type bins = {
  lower : float array;  (** [w_L(i)], index [i + m] for [i = -m .. m]. *)
  upper : float array;  (** [w_H(i)], same indexing. *)
  half_width : int;  (** [m]: arrays have length [2 m + 1]. *)
  step : float;  (** [d = buffer / m]. *)
}

val discretize : t -> buffer:float -> bins:int -> bins
(** Exact bin masses per eqs. 21-22 for [m = bins]; mass below [-B] and
    above [B] is folded into the edge bins, which is lossless for the
    queue recursion because increments beyond [+-B] saturate the buffer
    regardless.  @raise Invalid_argument unless buffer and bins are
    positive. *)

(** Cross-cell workload cache for parameter sweeps.

    A sweep whose cells differ only in buffer size re-derives the same
    model and workload once per cell; the cache shares a single
    memoizing workload per caller key, so the survival memo tables are
    shared too.  Keys must be injective over the distinct models of the
    sweep (e.g. the hex-printed column coordinate); the service rate is
    part of the workload key automatically.  All operations are
    domain-safe; the lookup/hit counters let tests assert that a sweep
    creates exactly one entry per distinct key and hits on every other
    lookup.  Sharing a cache entry never changes a computed value, so
    cached sweeps remain bit-identical to uncached ones. *)
module Cache : sig
  type workload := t
  type t

  val create : unit -> t

  val model : t -> key:string -> (unit -> Model.t) -> Model.t
  (** Memoized model construction: builds on first use of [key], returns
      the cached model afterwards. *)

  val workload : t -> key:string -> Model.t -> service_rate:float -> workload
  (** The shared memoizing workload for [(key, service_rate)]; built with
      [create ~memoize:true] on first use. *)

  val lookups : t -> int
  (** Total [model] + [workload] calls so far. *)

  val hits : t -> int
  (** Lookups answered from the cache ([lookups - hits] is the number of
      entries ever built). *)

  val entries : t -> int
  (** Distinct models plus distinct workloads currently cached. *)
end
