(** Exact simulation of a finite-buffer fluid queue with constant service
    rate fed by a piecewise-constant-rate source.

    Within an epoch of constant arrival rate [r] and length [d], the
    occupancy evolves linearly at slope [r - c], clamped to [0, B]; all
    work arriving while the buffer sits at [B] with [r > c] is lost.  The
    evolution is integrated in closed form per epoch, so the simulation is
    exact (no time discretization).  This is the engine behind the
    paper's shuffled-trace experiments (Figs. 7, 8, 14) and the Monte
    Carlo cross-check of the analytic solver.

    A state holds one {e lane} per buffer size, all behind one server of
    rate [c] and all fed the same epochs.  A bulk pass ({!run},
    {!run_trace}, {!losses_per_slot}, {!occupancy_per_slot}) validates
    its input once, computes the offered work and elapsed time once for
    every lane, and then advances each lane through all epochs in one
    loop that allocates nothing per epoch.  {!offer} is the same kernel
    run on one lane for one epoch, for callers that interleave epochs
    with other work.  Each lane's statistics are bitwise the same as
    those of a one-lane state fed the same epochs one {!offer} at a
    time. *)

type stats = {
  arrived : float;  (** Total work offered. *)
  lost : float;  (** Work lost to overflow. *)
  served : float;  (** Work that left the server. *)
  final_occupancy : float;
  max_occupancy : float;
  busy_time : float;  (** Time with a nonempty buffer or active arrival. *)
  duration : float;  (** Total simulated time. *)
}

val loss_rate : stats -> float
(** [lost / arrived]; 0 when nothing arrived. *)

val utilization : stats -> service_rate:float -> float
(** [served / (c * duration)]: the achieved server utilization. *)

type t
(** Resumable simulator state: one lane per buffer. *)

val create : service_rate:float -> buffers:float array -> t
(** One empty lane per buffer size (in work units).
    @raise Invalid_argument unless [service_rate > 0] and every buffer
    is [>= 0]. *)

val make : service_rate:float -> buffer:float -> ?initial:float -> unit -> t
(** A one-lane state, optionally starting at occupancy [initial]
    (default 0).
    @raise Invalid_argument unless [service_rate > 0], [buffer >= 0], and
    [initial] lies in [0, buffer]. *)

val stats : t -> stats array
(** Statistics accumulated since creation, one per lane in buffer
    order. *)

val run : t -> rates:float array -> durations:float array -> stats array
(** Feeds the epochs [(rates.(i), durations.(i))] to every lane in one
    pass and returns {!stats}.
    @raise Invalid_argument if the arrays differ in length or hold a
    negative or non-finite value (checked before any lane moves). *)

val run_trace : t -> Lrd_trace.Trace.t -> stats array
(** Treats each trace slot as one epoch of the slot duration. *)

val losses_per_slot : t -> Lrd_trace.Trace.t -> float array array * stats array
(** Like {!run_trace} but also returns, per lane, the work lost in each
    slot — the loss process consumed by the ARQ-vs-FEC example and the
    batch-means intervals. *)

val occupancy_per_slot :
  t -> Lrd_trace.Trace.t -> float array array * stats array
(** Like {!run_trace} but also returns, per lane, the occupancy at the
    end of each slot — the empirical occupancy distribution used to
    validate the infinite-buffer tail asymptotics. *)

(** {2 One epoch at a time}

    The functions below need a one-lane state and raise
    [Invalid_argument] on any other. *)

val occupancy : t -> float

val offer : t -> rate:float -> duration:float -> float
(** Feeds one constant-rate epoch; returns the work lost during it.
    @raise Invalid_argument on a negative or non-finite rate or
    duration. *)

val offer_with_output : t -> rate:float -> duration:float ->
  float * (float * float) list
(** Like {!offer}, additionally returning the {e departure} process of
    the epoch as one or two constant-rate [(rate, duration)] segments:
    the server emits at the full service rate while the buffer is
    nonempty (or the arrival alone saturates it) and at the arrival rate
    once the buffer has drained.  Chaining these segments into another
    queue builds exact tandem (multi-hop) fluid networks; see
    {!Tandem}. *)

val epoch_time_above :
  service_rate:float ->
  initial:float ->
  rate:float ->
  duration:float ->
  level:float ->
  float
(** Time within one constant-rate epoch during which the (unbounded)
    occupancy exceeds [level], starting from [initial]: the occupancy is
    piecewise linear with slope [rate - service_rate], clamped at 0.
    This is the exact per-epoch contribution to the {e time}-stationary
    ccdf [Pr{Q > level}] — the quantity analytic results like
    Anick–Mitra–Sondhi describe (sampling at epoch boundaries instead
    biases toward short-holding states).
    @raise Invalid_argument on negative duration or a zero-slope epoch
    with [rate = service_rate] is handled exactly ([initial] persists). *)
