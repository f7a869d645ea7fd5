(** Parameter grids and sweep helpers shared by the figure runners.

    The grid evaluators ([surface], [psurface], [map]) optionally run on
    a {!Lrd_parallel.Pool}; [?pool:None] (the default) evaluates
    sequentially in row-major order.  Cell functions must follow the
    pool's determinism contract — no shared mutable state except
    domain-safe caches, randomness derived from the cell index via
    {!Lrd_rng.Rng.split_indexed} — so that pooled evaluation is
    bit-identical to sequential evaluation. *)

val buffers : quick:bool -> ?max_seconds:float -> unit -> float array
(** Normalized buffer sizes in seconds, log-spaced from 10 ms up to
    [max_seconds] (default 2 s) — the "up to a few seconds" range the
    paper motivates with contemporary switch buffers.  7 points (4 in
    quick mode).
    @raise Invalid_argument unless [max_seconds > 0.01] (the logspace
    lower bound; anything at or below it would silently produce a
    degenerate, non-increasing grid). *)

val cutoffs : quick:bool -> unit -> float array
(** Cutoff lags in seconds, log-spaced from 100 ms to 100 s plus
    infinity.  8 points (5 in quick mode). *)

val hursts : quick:bool -> unit -> float array
(** Hurst parameters spanning the paper's (0.55, 0.95) range. *)

val scalings : quick:bool -> unit -> float array
(** Marginal scaling factors spanning the paper's (0.5, 1.5) range. *)

val stream_counts : quick:bool -> unit -> int array
(** Numbers of superposed streams, 1 .. 10. *)

val map :
  ?pool:Lrd_parallel.Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map], optionally spread across the pool; results are in index
    order either way. *)

val surface :
  ?pool:Lrd_parallel.Pool.t ->
  xs:float array ->
  ys:float array ->
  f:(x:float -> y:float -> float) ->
  unit ->
  float array array
(** [cells.(row).(col) = f ~x:xs.(col) ~y:ys.(row)]. *)

val psurface :
  ?pool:Lrd_parallel.Pool.t ->
  xs:'a array ->
  ys:'b array ->
  f:('a -> 'b -> 'c) ->
  unit ->
  'c array array
(** Polymorphic [surface] for grids whose axes are not floats (shuffled
    traces, interarrival laws, ...): [cells.(row).(col) = f xs.(col)
    ys.(row)]. *)

val cell_key : float -> string
(** Hex-exact cache key for a float grid coordinate
    ([Printf.sprintf "%h"]): injective over distinct coordinates,
    including infinity, which is what {!Lrd_core.Workload.Cache}
    requires. *)

type contrast =
  | Decades of float
      (** A fixed contrast window: stop refining a cell once its
          certified upper bound sits this many decades below the
          largest lower bound anywhere on the surface. *)
  | From_axis
      (** Derive the window from the figure's own loss axis: the
          certified lower bounds of finished cells span the plotted
          range, and the cut falls one decade below the smallest
          plotted value — anything smaller is off the bottom of the
          axis.  Floored at the fixed default of 2 decades; no cut is
          applied until at least one cell has finished with a positive
          bound.  The derivation reads only settled solver states, so
          scheduling stays deterministic. *)

type gap_policy = {
  contrast : contrast option;
      (** Stop refining cells whose exact value can no longer change
          the plotted contrast.  [None] (the default) converges every
          cell to the solver's own gap target. *)
  iteration_budget : int option;
      (** Hard cap on the total chain iterations the whole surface may
          spend; when it runs out every remaining cell is stopped with
          its latest certified (possibly loose) bounds.  [None]: no
          cap. *)
}
(** Per-figure error-budget policy for {!scheduled_surface}.  Both
    levers compose; both leave every reported bound certified
    (lower <= true loss <= upper) — they only decide how {e narrow} the
    intervals get. *)

val uniform_policy : gap_policy
(** No contrast rule, no budget: every cell converges to the solver's
    uniform 20% gap target — the classic sweep semantics. *)

val scheduled_surface :
  ?pool:Lrd_parallel.Pool.t ->
  ?policy:gap_policy ->
  ?slice:int ->
  ?warm_start:bool ->
  ?shard:Shard.t ->
  xs:'a array ->
  ys:'b array ->
  state:('a -> 'b -> Lrd_core.Solver.State.t) ->
  unit ->
  Lrd_core.Solver.result array array
(** Gap-driven grid evaluation over resumable solver states:
    [cells.(row).(col)] is the result of [state xs.(col) ys.(row)],
    like {!psurface}, but iterations flow to the cells with the widest
    relative bound gaps.  Each scheduling round advances every active
    cell within 2x of the widest gap by [slice] chain iterations
    (default 512), on the pool when one is given.  Cells are created
    lazily along each row: when a cell finishes, its right neighbour
    starts and — when [warm_start] (default [true]) and the occupancy
    grids (nearly) coincide — is seeded from its converged pmfs
    ({!Lrd_core.Solver.State.seed_from}), skipping the refinement
    ladder.  All six loss surfaces keep the buffer (nearly) constant
    along a row — mean-preserving marginal transforms leave the service
    rate fixed up to zero-clamping — so the coincidence holds by
    construction there; the check falls back to a cold start
    otherwise.

    Deterministic for every pool size: rounds are sequential, the
    frontier is a pure function of the per-cell states, and cells never
    share mutable state (the usual sweep contract).  Counters:
    [sweep/warm_starts], [sweep/iterations_saved] (conservative:
    source-minus-own iterations per warm-started cell),
    [sweep/cells_early_stopped], [sweep/schedule_rounds]; recent
    per-slice gaps land in the [sweep/gap_rel] trajectory, and
    [sweep/slice] / [sweep/warm_start] / [sweep/early_stop] trace
    events show the budget flowing to hard cells on a Perfetto
    timeline.

    [shard] slices or replays the grid ({!Shard}): a compute-mode
    handle runs only the rows its spec owns (unowned cells report
    {!Shard.absent_result}) and records the owned rows into the handle;
    a replay-mode handle short-circuits the whole evaluation to the
    merged store, never invoking [state].  Because warm-start chains
    never cross rows, each owned cell is bitwise identical to the same
    cell of the unsharded run, and [sweep/cells] counts owned cells
    only so the counter sums exactly across a shard set.
    @raise Invalid_argument when [slice <= 0], or when [shard] is
    combined with a non-uniform [policy] (contrast/budget couple cells
    across the whole surface, which a partition cannot reproduce). *)

val manifest_fields : quick:bool -> unit -> (string * Lrd_obs.Json.t) list
(** The shared parameter grids above, for a run's provenance manifest:
    [buffers_seconds], [cutoffs_seconds] (infinity as the string
    ["inf"]), [hursts], [scalings], [stream_counts]. *)

val shuffle_blocks_of_cutoffs :
  Lrd_trace.Trace.t -> float array -> (float * int option) array
(** Maps each cutoff lag to the shuffle block size [T_c / slot]
    (infinity maps to [None], i.e. the unshuffled trace); cutoffs below
    one slot are clamped to a single-sample block. *)

val shuffled_losses :
  ?pool:Lrd_parallel.Pool.t ->
  seed:int64 ->
  Lrd_trace.Trace.t ->
  utilization:float ->
  buffers:float array ->
  cutoffs:float array ->
  float array array
(** The shuffled-trace loss surface of Figs. 7, 8 and 14:
    [cells.(row).(col)] is the loss rate of the exact fluid queue with
    [c = mean / utilization] and [B = buffers.(row) * c] (buffers in
    seconds) fed the trace externally shuffled with the block of
    [cutoffs.(col)] ({!shuffle_blocks_of_cutoffs}).  Each column is one
    shuffle, drawn from the stream [seed + 7] split by column index, and
    one {!Lrd_fluidsim.Queue_sim} pass with a lane per buffer. *)
