type params = {
  initial_bins : int;
  max_bins : int;
  tolerance : float;
  negligible_loss : float;
  max_iterations : int;
  check_every : int;
  stall_factor : float;
  warm_restart : bool;
  convolution : [ `Auto | `Fft | `Direct ];
}

let default_params =
  {
    initial_bins = 128;
    max_bins = 16384;
    tolerance = 0.2;
    negligible_loss = 1e-10;
    max_iterations = 200_000;
    check_every = 16;
    stall_factor = 0.02;
    warm_restart = true;
    convolution = `Auto;
  }

type result = {
  loss : float;
  lower_bound : float;
  upper_bound : float;
  iterations : int;
  bins : int;
  refinements : int;
  converged : bool;
}

let pp_result fmt r =
  Format.fprintf fmt
    "loss=%.4g in [%.4g, %.4g] (%s after %d iterations, %d bins, %d \
     refinements)"
    r.loss r.lower_bound r.upper_bound
    (if r.converged then "converged" else "budget exhausted")
    r.iterations r.bins r.refinements

let log_src = Logs.Src.create "lrd.solver" ~doc:"fluid queue loss solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Obs = Lrd_obs.Obs
module Resource = Lrd_obs.Resource

(* Solver telemetry.  Everything is recorded at check-period or
   per-solve granularity — never inside [Workspace.step] — so the
   zero-allocation step invariant is untouched and the instrumentation
   cost is amortized over [check_every] iterations.  The bound-gap
   trajectory keeps the most recent relative gaps ((upper - lower) /
   midpoint, the paper's 20% stopping ratio), which is the convergence
   curve Proposition II.1 predicts to be monotone in n and m. *)
let m_solves = Obs.Counter.make "solver/solves"
let m_iterations = Obs.Counter.make "solver/iterations"
let m_refinements = Obs.Counter.make "solver/refinements"
let m_warm_restarts = Obs.Counter.make "solver/warm_restarts"
let m_budget_exhausted = Obs.Counter.make "solver/budget_exhausted"
let m_workspaces_fft = Obs.Counter.make "solver/workspaces_fft"
let m_workspaces_direct = Obs.Counter.make "solver/workspaces_direct"
let m_workspaces_seeded = Obs.Counter.make "solver/workspaces_seeded"
let m_workspace_span = Obs.Span.make "solver/workspace_seconds"
let m_gap_trajectory = Obs.Trajectory.make "solver/bound_gap_rel"
let m_last_gap = Obs.Gauge.make "solver/last_bound_gap_rel"
let m_solve_span = Obs.Span.make "solver/solve_seconds"
let m_solve_alloc = Resource.Alloc.make "solver/solve_minor_words"

(* ------------------------------------------------------------------ *)
(* Per-level workspace.

   One resolution level owns everything a Lindley step touches: the
   occupancy pmfs of both chains, the dual-channel convolution plan for
   the discretized increment kernels (or the raw kernels on the direct
   path), the convolution output buffers, and the per-bin
   expected-overflow table.  All of it is allocated when the level is
   built — [step] then advances both chains
   with zero heap allocation, which is what makes the 200k-iteration
   sweeps FLOP-bound instead of GC-bound. *)

module Workspace = struct
  type vec = Lrd_numerics.Fft.vec

  (* Three engines for the Lindley convolution, fastest first:

     [Real_circular] — m is a fast size, so both chains convolve on a
     CIRCULAR real-transform grid of only n = 2m points (half the
     linear length, a quarter of the old power-of-two dual grid).  The
     wrap-around is controlled aliasing: the linear output u lives on
     [0, 3m], so the folded u^[t] = u[t] + u[t + 2m] corrupts only
     t <= m — exactly the range the boundary fold collapses anyway.
     The full-state mass sum_{i >= 2m} u[i] is recovered EXACTLY by an
     O(m) correlation of the pmf with the kernel's tail cumulative
     (tail.(j) = sum_{l >= 2m - j} ker[l]), and the empty-state mass by
     total-mass accounting — more accurately than summing FFT output,
     since the tail masses that drive deep-buffer loss are computed
     from nonnegative products instead of cancelling transform noise.

     [Real_linear] — m is not a fast size: plain linear convolution on
     the default real grid (still one half-size transform each way).

     [Direct] — schoolbook, for small grids. *)
  type kernels =
    | Real_circular of {
        lower : Lrd_numerics.Convolution.real_plan;
        upper : Lrd_numerics.Convolution.real_plan;
        lower_tail : vec;  (* tail.(j) = sum_{l >= 2m-j} lower_ker.(l) *)
        upper_tail : vec;
      }
    | Real_linear of {
        lower : Lrd_numerics.Convolution.real_plan;
        upper : Lrd_numerics.Convolution.real_plan;
      }
    | Direct of { lower : float array; upper : float array }

  type t = {
    m : int;
    width : float;  (* grid step d = buffer / m *)
    kernels : kernels;
    overflow : vec;  (* E[W_l | Q = j d], j = 0 .. m. *)
    lower_q : vec;  (* floor-chain occupancy pmf, length m + 1 *)
    upper_q : vec;  (* ceiling-chain occupancy pmf *)
    conv_lower : vec;  (* convolution outputs *)
    conv_upper : vec;
  }

  let vec_make len : vec =
    let v = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len in
    Bigarray.Array1.fill v 0.0;
    v

  let bins t = t.m
  let grid_step t = t.width

  let pmf_copy (q : vec) m =
    Array.init (m + 1) (fun j -> Bigarray.Array1.get q j)

  let lower_pmf t = pmf_copy t.lower_q t.m
  let upper_pmf t = pmf_copy t.upper_q t.m

  (* Downward Neumaier cumulative of the kernel top: tail.(j) holds
     sum_{l >= 2m - j} ker.(l) for j = 0 .. m, so the full-state mass
     of a step is the correlation sum_j q_j tail.(j). *)
  let tail_cumulative kernel ~m =
    let tail = vec_make (m + 1) in
    let s = ref 0.0 and c = ref 0.0 in
    for i = 2 * m downto m do
      let x = kernel.(i) in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t';
      let j = (2 * m) - i in
      if j <= m then Bigarray.Array1.set tail j (!s +. !c)
    done;
    tail

  let build ~convolution workload ~buffer ~m =
    let bins = Workload.discretize workload ~buffer ~bins:m in
    let use_fft =
      match convolution with
      | `Fft -> true
      | `Direct -> false
      | `Auto ->
          (* One centralized crossover for signal (m+1) vs kernel (2m+1). *)
          Lrd_numerics.Convolution.prefer_fft ~na:(m + 1) ~nb:((2 * m) + 1)
    in
    Obs.Counter.incr (if use_fft then m_workspaces_fft else m_workspaces_direct);
    let kernels =
      if use_fft then
        if Lrd_numerics.Fft.is_fast_size m then
          Real_circular
            {
              lower =
                Lrd_numerics.Convolution.make_real_plan ~size:(2 * m)
                  ~kernel:bins.Workload.lower ~max_signal:(m + 1) ();
              upper =
                Lrd_numerics.Convolution.make_real_plan ~size:(2 * m)
                  ~kernel:bins.Workload.upper ~max_signal:(m + 1) ();
              lower_tail = tail_cumulative bins.Workload.lower ~m;
              upper_tail = tail_cumulative bins.Workload.upper ~m;
            }
        else
          Real_linear
            {
              lower =
                Lrd_numerics.Convolution.make_real_plan
                  ~kernel:bins.Workload.lower ~max_signal:(m + 1) ();
              upper =
                Lrd_numerics.Convolution.make_real_plan
                  ~kernel:bins.Workload.upper ~max_signal:(m + 1) ();
            }
      else
        Direct { lower = bins.Workload.lower; upper = bins.Workload.upper }
    in
    let conv_len =
      match kernels with
      | Real_circular _ -> 2 * m
      | Real_linear { lower; _ } ->
          Lrd_numerics.Convolution.real_transform_size lower
      | Direct _ -> (3 * m) + 1
    in
    let overflow = vec_make (m + 1) in
    let ov = Workload.overflow_table workload ~buffer ~bins:m in
    for j = 0 to m do
      Bigarray.Array1.set overflow j ov.(j)
    done;
    let lower_q = vec_make (m + 1) in
    let upper_q = vec_make (m + 1) in
    Bigarray.Array1.set lower_q 0 1.0;
    Bigarray.Array1.set upper_q m 1.0;
    {
      m;
      width = bins.Workload.step;
      kernels;
      overflow;
      lower_q;
      upper_q;
      conv_lower = vec_make conv_len;
      conv_upper = vec_make conv_len;
    }

  (* Construction (discretization, overflow table, convolution plans)
     is timed and traced apart from iteration, on whichever domain
     builds the level. *)
  let make ?(convolution = `Auto) workload ~buffer ~m =
    Obs.Span.time m_workspace_span (fun () ->
        if Obs.Trace.enabled () then
          Obs.Trace.with_span ~arg:m "solver/workspace" (fun () ->
              build ~convolution workload ~buffer ~m)
        else build ~convolution workload ~buffer ~m)

  (* Fold the convolution [u] back onto the grid in place (eqs. 19-20):
     mass below 0 collapses into the empty state, mass above B into the
     full state; index s of [u] corresponds to the value (s - m) d.
     FFT rounding can leave tiny negatives / drift, so clamp and rescale
     to keep the pmf a probability vector.

     The Neumaier sums are written out inline rather than through
     [Summation]: without flambda a cross-module call that takes or
     returns a float boxes it, and [Float.max] likewise, which would
     break the zero-allocation invariant of [step].  Local refs compile
     to unboxed mutable variables, so this whole function stays off the
     heap. *)
  let fold_exact t (u : vec) (q : vec) =
    let m = t.m in
    (* A local helper closure would re-box the refs; the Neumaier body
       is therefore repeated verbatim in each of the sums. *)
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get u i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let q0 = !s +. !c in
    Bigarray.Array1.unsafe_set q 0 (if q0 > 0.0 then q0 else 0.0);
    for j = 1 to m - 1 do
      let v = Bigarray.Array1.unsafe_get u (m + j) in
      Bigarray.Array1.unsafe_set q j (if v > 0.0 then v else 0.0)
    done;
    s := 0.0;
    c := 0.0;
    for i = 2 * m to 3 * m do
      let x = Bigarray.Array1.unsafe_get u i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let qm = !s +. !c in
    Bigarray.Array1.unsafe_set q m (if qm > 0.0 then qm else 0.0);
    s := 0.0;
    c := 0.0;
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get q i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let total = !s +. !c in
    if total > 0.0 && Float.abs (total -. 1.0) > 1e-15 then
      for j = 0 to m do
        Bigarray.Array1.unsafe_set q j (Bigarray.Array1.unsafe_get q j /. total)
      done

  (* Fold for the circular grid: u holds the 2m wrapped values
     u^[t] = u[t] + u[t + 2m].  Middle states m+1 .. 2m-1 are alias-free.
     The full-state mass comes from the tail correlation against the OLD
     pmf (still intact in q — the convolution reads but never writes it),
     and the empty-state mass from the wrapped prefix minus that: the
     prefix sum_{t <= m} u^[t] counts every aliased term exactly once. *)
  let fold_aliased t (u : vec) (q : vec) (tail : vec) =
    let m = t.m in
    let s = ref 0.0 and c = ref 0.0 in
    for j = 0 to m do
      let x =
        Bigarray.Array1.unsafe_get q j *. Bigarray.Array1.unsafe_get tail j
      in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let qm = !s +. !c in
    s := 0.0;
    c := 0.0;
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get u i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let q0 = !s +. !c -. qm in
    Bigarray.Array1.unsafe_set q 0 (if q0 > 0.0 then q0 else 0.0);
    for j = 1 to m - 1 do
      let v = Bigarray.Array1.unsafe_get u (m + j) in
      Bigarray.Array1.unsafe_set q j (if v > 0.0 then v else 0.0)
    done;
    Bigarray.Array1.unsafe_set q m (if qm > 0.0 then qm else 0.0);
    s := 0.0;
    c := 0.0;
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get q i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let total = !s +. !c in
    if total > 0.0 && Float.abs (total -. 1.0) > 1e-15 then
      for j = 0 to m do
        Bigarray.Array1.unsafe_set q j (Bigarray.Array1.unsafe_get q j /. total)
      done

  (* One Lindley step for BOTH chains: a real-input convolution per
     chain (circular when the grid allows) followed by the boundary
     folds.  Zero heap allocation. *)
  let step t =
    let len = t.m + 1 in
    match t.kernels with
    | Real_circular { lower; upper; lower_tail; upper_tail } ->
        Lrd_numerics.Convolution.execute_real_circular lower ~signal:t.lower_q
          ~len ~dst:t.conv_lower;
        fold_aliased t t.conv_lower t.lower_q lower_tail;
        Lrd_numerics.Convolution.execute_real_circular upper ~signal:t.upper_q
          ~len ~dst:t.conv_upper;
        fold_aliased t t.conv_upper t.upper_q upper_tail
    | Real_linear { lower; upper } ->
        Lrd_numerics.Convolution.execute_real_circular lower ~signal:t.lower_q
          ~len ~dst:t.conv_lower;
        Lrd_numerics.Convolution.execute_real_circular upper ~signal:t.upper_q
          ~len ~dst:t.conv_upper;
        fold_exact t t.conv_lower t.lower_q;
        fold_exact t t.conv_upper t.upper_q
    | Direct { lower; upper } ->
        Lrd_numerics.Convolution.direct_into_big t.lower_q ~len ~kernel:lower
          ~dst:t.conv_lower;
        Lrd_numerics.Convolution.direct_into_big t.upper_q ~len ~kernel:upper
          ~dst:t.conv_upper;
        fold_exact t t.conv_lower t.lower_q;
        fold_exact t t.conv_upper t.upper_q

  let loss_of t ~norm (q : vec) =
    let acc = Lrd_numerics.Summation.create () in
    for j = 0 to t.m do
      let p = Bigarray.Array1.unsafe_get q j in
      if p > 0.0 then
        Lrd_numerics.Summation.add acc (p *. Bigarray.Array1.unsafe_get t.overflow j)
    done;
    Lrd_numerics.Summation.total acc /. norm

  let losses t ~norm = (loss_of t ~norm t.lower_q, loss_of t ~norm t.upper_q)

  (* Doubling the grid: old point j d sits exactly at new point 2j (d/2),
     so re-quantization is an exact re-indexing and both chains keep
     their bound property (Proposition II.1 (v) plus footnote 3). *)
  let refine_from ~src dst =
    if dst.m <> 2 * src.m then
      invalid_arg "Solver.Workspace.refine_from: dst must have twice the bins";
    Bigarray.Array1.fill dst.lower_q 0.0;
    Bigarray.Array1.fill dst.upper_q 0.0;
    for j = 0 to src.m do
      Bigarray.Array1.set dst.lower_q (2 * j)
        (Bigarray.Array1.get src.lower_q j);
      Bigarray.Array1.set dst.upper_q (2 * j)
        (Bigarray.Array1.get src.upper_q j)
    done
end

type occupancy = {
  step : float;
  lower_pmf : float array;
  upper_pmf : float array;
}

let point_mass_occupancy =
  { step = 0.0; lower_pmf = [| 1.0 |]; upper_pmf = [| 1.0 |] }

let pmf_mean ~step pmf =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun j p -> Lrd_numerics.Summation.add acc (p *. float_of_int j *. step))
    pmf;
  Lrd_numerics.Summation.total acc

let mean_occupancy occ =
  (pmf_mean ~step:occ.step occ.lower_pmf, pmf_mean ~step:occ.step occ.upper_pmf)

let pmf_ccdf ~step pmf ~threshold =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun j p ->
      if float_of_int j *. step >= threshold then
        Lrd_numerics.Summation.add acc p)
    pmf;
  Float.min 1.0 (Lrd_numerics.Summation.total acc)

let occupancy_ccdf occ ~threshold =
  ( pmf_ccdf ~step:occ.step occ.lower_pmf ~threshold,
    pmf_ccdf ~step:occ.step occ.upper_pmf ~threshold )

let pmf_quantile ~step pmf ~p =
  let n = Array.length pmf in
  let rec go j cumulative =
    if j >= n - 1 then float_of_int (n - 1) *. step
    else begin
      let cumulative = cumulative +. pmf.(j) in
      if cumulative >= p -. 1e-15 then float_of_int j *. step
      else go (j + 1) cumulative
    end
  in
  go 0 0.0

let occupancy_quantile occ ~p =
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg "Solver.occupancy_quantile: p must lie in (0, 1]";
  ( pmf_quantile ~step:occ.step occ.lower_pmf ~p,
    pmf_quantile ~step:occ.step occ.upper_pmf ~p )

let mean_virtual_delay occ ~service_rate =
  if not (service_rate > 0.0) then
    invalid_arg "Solver.mean_virtual_delay: service rate must be positive";
  let lo, hi = mean_occupancy occ in
  (lo /. service_rate, hi /. service_rate)

(* ------------------------------------------------------------------ *)
(* Resumable solver state.

   [State] is the solve loop turned inside out: the same iterate /
   check / refine sequence as the classic [solve], but driven by
   [advance ~iterations] slices so a sweep scheduler can suspend a
   partially-converged cell and resume it later — on any domain —
   bitwise-identically to an uninterrupted run.  The invariant that
   makes slicing exact: bounds are evaluated after every
   [check_every]-th chain step (or at the iteration budget), regardless
   of how the steps were grouped into [advance] calls, so the sequence
   of (step, check, refine) events is a function of the total iteration
   count only.  [solve] itself is implemented on top of [State], which
   makes the equivalence hold by construction. *)

module State = struct
  type t = {
    params : params;
    workload : Workload.t;
    norm : float;
    buffer : float;
    trace_levels : bool;
        (* Emit solver/level begin/end slices (balanced B/E pairs).
           Only safe when every advance of this state runs on one
           domain — true for [solve], false for scheduled sweeps whose
           slices migrate between pool workers. *)
    trivial : (result * occupancy) option;
    mutable ws : Workspace.t option;  (* built lazily on first advance *)
    mutable seed : Workspace.t option;
        (* A finished neighbour's workspace recorded by [seed_from] and
           read-only from then on: the first [ensure_ws] builds this
           state's workspace at its resolution and starts both chains
           from its pmfs, inside the state's first slice. *)
    mutable iterations : int;
    mutable refinements : int;
    mutable since_check : int;  (* chain steps since the last check *)
    mutable prev_lower : float;  (* bounds at the previous check (nan *)
    mutable prev_upper : float;  (* right after create / refine) *)
    mutable lower : float;  (* bounds at the latest check; nan before *)
    mutable upper : float;  (* the first one *)
    mutable finished : bool;
    mutable converged : bool;
    mutable warm_started : bool;
  }

  let create ?(params = default_params) ?cache ?(trace_levels = false) model
      ~service_rate ~buffer =
    if not (service_rate > 0.0) then
      invalid_arg "Solver.solve: service rate must be positive";
    if not (buffer >= 0.0) then
      invalid_arg "Solver.solve: buffer must be nonnegative";
    Obs.Counter.incr m_solves;
    let workload =
      match cache with
      | Some (cache, key) ->
          Workload.Cache.workload cache ~key model ~service_rate
      | None ->
          (* Memoization still pays within a single solve: every grid
             refinement re-evaluates the survival functions on a
             superset of the coarser grid's points. *)
          Workload.create ~memoize:true model ~service_rate
    in
    let norm =
      Model.mean_rate model
      *. model.Model.interarrival.Lrd_dist.Interarrival.mean
    in
    let trivial =
      if buffer = 0.0 then begin
        let loss = Workload.zero_buffer_loss workload in
        Some
          ( {
              loss;
              lower_bound = loss;
              upper_bound = loss;
              iterations = 0;
              bins = 0;
              refinements = 0;
              converged = true;
            },
            point_mass_occupancy )
      end
      else if Workload.max_increment workload <= 0.0 then
        (* No rate ever exceeds the service rate: the queue never
           grows. *)
        Some
          ( {
              loss = 0.0;
              lower_bound = 0.0;
              upper_bound = 0.0;
              iterations = 0;
              bins = params.initial_bins;
              refinements = 0;
              converged = true;
            },
            point_mass_occupancy )
      else None
    in
    {
      params;
      workload;
      norm;
      buffer;
      trace_levels;
      trivial;
      ws = None;
      seed = None;
      iterations = 0;
      refinements = 0;
      since_check = 0;
      prev_lower = Float.nan;
      prev_upper = Float.nan;
      lower = Float.nan;
      upper = Float.nan;
      finished = trivial <> None;
      converged = trivial <> None;
      warm_started = false;
    }

  let create_utilization ?params ?cache ?trace_levels model ~utilization
      ~buffer_seconds =
    let c = Model.service_rate_for_utilization model ~utilization in
    create ?params ?cache ?trace_levels model ~service_rate:c
      ~buffer:(buffer_seconds *. c)

  let finished t = t.finished
  let converged t = t.converged
  let iterations t = t.iterations
  let refinements t = t.refinements
  let warm_started t = t.warm_started

  let bins t =
    match t.trivial with
    | Some (r, _) -> r.bins
    | None -> (
        match (t.ws, t.seed) with
        | Some ws, _ | None, Some ws -> Workspace.bins ws
        | None, None -> t.params.initial_bins)

  let bounds t =
    match t.trivial with
    | Some (r, _) -> (r.lower_bound, r.upper_bound)
    | None -> (t.lower, t.upper)

  (* Relative bound gap at the latest check — the scheduler's priority.
     Infinite before the first check, so fresh cells are always
     scheduled; 0 once the loss is known negligible. *)
  let gap_rel t =
    match t.trivial with
    | Some _ -> 0.0
    | None ->
        if Float.is_nan t.lower then Float.infinity
        else if t.upper < t.params.negligible_loss then 0.0
        else begin
          let mid = (t.lower +. t.upper) /. 2.0 in
          if mid > 0.0 then (t.upper -. t.lower) /. mid else 0.0
        end

  let ensure_ws t =
    match t.ws with
    | Some ws -> ws
    | None ->
        let m = bins t in
        let ws =
          Workspace.make ~convolution:t.params.convolution t.workload
            ~buffer:t.buffer ~m
        in
        (match t.seed with
        | None -> ()
        | Some src ->
            Bigarray.Array1.blit src.Workspace.lower_q ws.Workspace.lower_q;
            Bigarray.Array1.blit src.Workspace.upper_q ws.Workspace.upper_q;
            t.seed <- None;
            Obs.Counter.incr m_workspaces_seeded;
            (* Evaluate the seeded pmfs under THIS cell's workload as
               the "previous check": a genuine point of the new chain at
               step zero.  If the seed is already near-stationary for
               this cell, the first real check plateaus against it and
               can settle after a single check period instead of two. *)
            let lo0, hi0 = Workspace.losses ws ~norm:t.norm in
            t.prev_lower <- lo0;
            t.prev_upper <- hi0;
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~arg:m "solver/seed");
        (* Trace granularity mirrors the metric granularity: one slice
           per resolution level plus refinement instants — never per
           check period, which would flood the ring on 200k-iteration
           solves. *)
        if t.trace_levels && Obs.Trace.enabled () then
          Obs.Trace.begin_ ~arg:m "solver/level";
        t.ws <- Some ws;
        ws

  let finish t ~converged ~lo ~hi =
    if t.trace_levels && Obs.Trace.enabled () then
      Obs.Trace.end_ ~arg:(bins t) "solver/level";
    if not converged then Obs.Counter.incr m_budget_exhausted;
    t.lower <- lo;
    t.upper <- hi;
    t.finished <- true;
    t.converged <- converged

  let plateaued t previous current =
    Float.is_finite previous
    && Float.abs (previous -. current)
       <= t.params.stall_factor *. Float.max previous 1e-300

  let check t ws =
    let lo, hi = Workspace.losses ws ~norm:t.norm in
    let gap = hi -. lo in
    let mid = (hi +. lo) /. 2.0 in
    Log.debug (fun f ->
        f "n=%d m=%d lower=%.4g upper=%.4g" t.iterations (Workspace.bins ws)
          lo hi);
    if Obs.enabled () then begin
      Obs.Counter.add m_iterations t.since_check;
      let rel = if mid > 0.0 then gap /. mid else 0.0 in
      Obs.Trajectory.record m_gap_trajectory rel;
      Obs.Gauge.set m_last_gap rel
    end;
    t.since_check <- 0;
    t.lower <- lo;
    t.upper <- hi;
    (* A warm-started chain approaches its stationary value from an
       arbitrary side, so a transiently narrow gap (or transiently tiny
       upper bound) proves nothing.  Accept a convergence criterion only
       once both chains have ALSO plateaued — i.e. they sit at their
       stationary values to within [stall_factor], where the floor /
       ceiling losses are certified bounds regardless of the initial
       state.  Cold chains approach monotonically (Proposition II.1),
       so [settled] is identically true for them and the classic
       stopping protocol is unchanged bit for bit. *)
    let settled =
      (not t.warm_started)
      || (plateaued t t.prev_lower lo && plateaued t t.prev_upper hi)
    in
    if hi < t.params.negligible_loss && settled then
      finish t ~converged:true ~lo ~hi
    else if gap <= t.params.tolerance *. mid && settled then
      finish t ~converged:true ~lo ~hi
    else if t.iterations >= t.params.max_iterations then
      finish t ~converged:false ~lo ~hi
    else begin
      (* Refine only when BOTH chains have individually plateaued:
         while a chain is still mixing toward its stationary value
         (e.g. the ceiling chain draining a deep buffer), iterating at
         the current resolution is cheap and refinement buys nothing. *)
      let stalled =
        plateaued t t.prev_lower lo && plateaued t t.prev_upper hi
      in
      t.prev_lower <- lo;
      t.prev_upper <- hi;
      if stalled then begin
        let m = Workspace.bins ws in
        if m * 2 <= t.params.max_bins then begin
          Log.debug (fun f -> f "refining grid to m=%d" (m * 2));
          let next =
            Workspace.make ~convolution:t.params.convolution t.workload
              ~buffer:t.buffer ~m:(m * 2)
          in
          Obs.Counter.incr m_refinements;
          if Obs.Trace.enabled () then begin
            if t.trace_levels then Obs.Trace.end_ ~arg:m "solver/level";
            Obs.Trace.instant ~arg:(m * 2) "solver/refine"
          end;
          if t.params.warm_restart then begin
            Obs.Counter.incr m_warm_restarts;
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~arg:(m * 2) "solver/warm_restart";
            Workspace.refine_from ~src:ws next
          end;
          if t.trace_levels && Obs.Trace.enabled () then
            Obs.Trace.begin_ ~arg:(m * 2) "solver/level";
          t.ws <- Some next;
          t.refinements <- t.refinements + 1;
          t.prev_lower <- Float.nan;
          t.prev_upper <- Float.nan
        end
        else
          (* Both chains have plateaued at the finest allowed grid:
             further iteration cannot close the gap.  Return the
             certified (if loose) bounds rather than burning the
             whole iteration budget at the most expensive level. *)
          finish t ~converged:false ~lo ~hi
      end
    end

  let advance t ~iterations:n =
    if n < 0 then
      invalid_arg "Solver.State.advance: iterations must be nonnegative";
    if t.trivial = None && not t.finished then begin
      let ws = ref (ensure_ws t) in
      let remaining = ref n in
      while !remaining > 0 && not t.finished do
        (* Next event boundary: the end of the current check period or
           the iteration budget, whichever comes first.  Both exceed
           the current position while the state is unfinished, so
           [steps >= 1] and the loop always progresses. *)
        let to_check = t.params.check_every - t.since_check in
        let to_budget = t.params.max_iterations - t.iterations in
        let steps = min (min to_check to_budget) !remaining in
        for _ = 1 to steps do
          Workspace.step !ws
        done;
        t.iterations <- t.iterations + steps;
        t.since_check <- t.since_check + steps;
        remaining := !remaining - steps;
        if
          t.since_check >= t.params.check_every
          || t.iterations >= t.params.max_iterations
        then begin
          check t !ws;
          (* [check] may have refined onto a new workspace. *)
          match t.ws with Some w -> ws := w | None -> ()
        end
      done
    end

  let run t =
    while not t.finished do
      advance t ~iterations:t.params.check_every
    done

  (* Flush the partial check period's iteration count so sweep counters
     stay exact, then evaluate bounds if this state never reached a
     check (the initial floor/ceiling states are themselves certified,
     if vacuous, bounds). *)
  let stop t =
    if not t.finished then begin
      if Obs.enabled () && t.since_check > 0 then
        Obs.Counter.add m_iterations t.since_check;
      t.since_check <- 0;
      if Float.is_nan t.lower then begin
        let ws = ensure_ws t in
        let lo, hi = Workspace.losses ws ~norm:t.norm in
        t.lower <- lo;
        t.upper <- hi
      end;
      if t.trace_levels && Obs.Trace.enabled () then
        Obs.Trace.end_ ~arg:(bins t) "solver/level";
      t.finished <- true
    end

  (* A seed is accepted when the neighbour's buffer agrees within this
     relative tolerance.  The pmfs are only an initial condition — the
     plateau guard in [check] provides certification for ANY starting
     state — so a near-coincident grid (e.g. a mean-preserving marginal
     scaling whose zero-clamp shifted the service rate a few percent,
     as Bellcore's fig13 columns do) still yields a useful seed; past a
     quarter or so the neighbour's occupancy shape is no longer worth
     adopting over the coarse-to-fine ladder. *)
  let seed_buffer_rel_tolerance = 0.25

  (* Warm start: adopt a converged neighbour's occupancy pmfs (and its
     final resolution) as this cell's initial condition, skipping both
     the refinement ladder and most of the mixing time.  The pmf vector
     is reinterpreted on [t]'s own grid — the same bin count, a grid
     step within [seed_buffer_rel_tolerance] — which is safe because
     the seed carries no bound semantics: the [check]-time plateau
     guard is what keeps the reported bounds certified despite the
     foreign initial state.  Only the source workspace is recorded
     here; the seeded workspace is built by [ensure_ws] in the cell's
     first slice, so a sweep builds it on a pool domain rather than on
     the scheduling one.  Returns [false] (leaving the state untouched,
     cold) whenever the grids are incompatible. *)
  let seed_from ~src t =
    match (src.trivial, t.trivial, src.ws) with
    | None, None, Some sws
      when (not t.finished)
           && Option.is_none t.ws
           && Float.abs (t.buffer -. src.buffer)
              <= seed_buffer_rel_tolerance
                 *. Float.max (Float.abs t.buffer) (Float.abs src.buffer)
           && Workspace.bins sws <= t.params.max_bins ->
        t.seed <- Some sws;
        t.warm_started <- true;
        true
    | _ -> false

  let result t =
    match t.trivial with
    | Some (r, _) -> r
    | None ->
        let lo = t.lower and hi = t.upper in
        {
          loss =
            (if hi < t.params.negligible_loss then 0.0
             else (lo +. hi) /. 2.0);
          lower_bound = lo;
          upper_bound = hi;
          iterations = t.iterations;
          bins = bins t;
          refinements = t.refinements;
          converged = t.converged;
        }

  let detailed t =
    match t.trivial with
    | Some d -> d
    | None ->
        let occ =
          match t.ws with
          | Some ws ->
              {
                step = Workspace.grid_step ws;
                lower_pmf = Workspace.lower_pmf ws;
                upper_pmf = Workspace.upper_pmf ws;
              }
          | None -> point_mass_occupancy
        in
        (result t, occ)
end

let solve_detailed_impl ?params ?cache model ~service_rate ~buffer =
  let st =
    State.create ?params ?cache ~trace_levels:true model ~service_rate ~buffer
  in
  State.run st;
  State.detailed st

let solve_detailed ?params ?cache model ~service_rate ~buffer =
  (* Minor-word attribution brackets the whole solve (plan building,
     state setup, refinement) — the per-step path itself stays
     allocation-free, so this counter is dominated by setup and is the
     number `lrd serve` will watch per request. *)
  let w0 = Resource.Alloc.start () in
  Fun.protect
    ~finally:(fun () -> Resource.Alloc.stop m_solve_alloc w0)
    (fun () ->
      Obs.Span.time m_solve_span (fun () ->
          Obs.Trace.with_span "solver/solve" (fun () ->
              solve_detailed_impl ?params ?cache model ~service_rate ~buffer)))

let solve ?params ?cache model ~service_rate ~buffer =
  fst (solve_detailed ?params ?cache model ~service_rate ~buffer)

let solve_utilization ?params ?cache model ~utilization ~buffer_seconds =
  let c = Model.service_rate_for_utilization model ~utilization in
  solve ?params ?cache model ~service_rate:c ~buffer:(buffer_seconds *. c)

type snapshot = {
  iteration : int;
  lower_pmf : float array;
  upper_pmf : float array;
  lower_loss : float;
  upper_loss : float;
}

let iterate_snapshots model ~service_rate ~buffer ~bins ~at =
  if not (buffer > 0.0) then
    invalid_arg "Solver.iterate_snapshots: buffer must be positive";
  let sorted = List.sort_uniq compare at in
  if sorted <> at then
    invalid_arg "Solver.iterate_snapshots: iteration list must be ascending";
  List.iter
    (fun n ->
      if n < 0 then
        invalid_arg "Solver.iterate_snapshots: negative iteration count")
    at;
  let workload = Workload.create model ~service_rate in
  let norm =
    Model.mean_rate model *. model.Model.interarrival.Lrd_dist.Interarrival.mean
  in
  let ws = Workspace.make workload ~buffer ~m:bins in
  let current = ref 0 in
  List.map
    (fun n ->
      while !current < n do
        Workspace.step ws;
        incr current
      done;
      let lower_loss, upper_loss = Workspace.losses ws ~norm in
      {
        iteration = n;
        lower_pmf = Workspace.lower_pmf ws;
        upper_pmf = Workspace.upper_pmf ws;
        lower_loss;
        upper_loss;
      })
    sorted
