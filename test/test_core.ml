open Lrd_core

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let onoff_marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ]

let exp_model mean =
  Model.create ~marginal:onoff_marginal
    ~interarrival:(Lrd_dist.Interarrival.exponential ~mean)

let pareto_model ?(marginal = onoff_marginal) ~theta ~alpha ~cutoff () =
  Model.cutoff_pareto ~marginal ~theta ~alpha ~cutoff

(* ------------------------------------------------------------------ *)
(* Model *)

let test_hurst_alpha_mapping () =
  check_close "alpha of 0.83" 1.34 (Model.alpha_of_hurst 0.83);
  check_close "hurst of 1.34" 0.83 (Model.hurst_of_alpha 1.34);
  check_close "roundtrip" 0.7 (Model.hurst_of_alpha (Model.alpha_of_hurst 0.7));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Model.alpha_of_hurst: hurst must lie in (0.5, 1)")
    (fun () -> ignore (Model.alpha_of_hurst 0.5))

let test_model_moments () =
  let m = exp_model 1.0 in
  check_close "mean rate (eq. 2)" 1.0 (Model.mean_rate m);
  check_close "rate variance (eq. 4)" 1.0 (Model.rate_variance m);
  check_close "mean epoch" 1.0 (Model.mean_epoch m);
  check_close "service for util 0.5" 2.0
    (Model.service_rate_for_utilization m ~utilization:0.5)

let test_covariance_drops_at_cutoff () =
  (* Eq. 8: correlation is exactly zero beyond the cutoff lag. *)
  let m = pareto_model ~theta:0.5 ~alpha:1.4 ~cutoff:3.0 () in
  Alcotest.(check bool) "positive inside" true (Model.covariance m 1.0 > 0.0);
  check_close "zero at cutoff" 0.0 (Model.covariance m 3.0);
  check_close "zero beyond" 0.0 (Model.covariance m 10.0);
  check_close "variance at lag 0" (Model.rate_variance m)
    (Model.covariance m 0.0)

let test_covariance_formula_eq8 () =
  (* Closed form of eq. 8 against the implementation. *)
  let theta = 0.5 and alpha = 1.4 and cutoff = 3.0 in
  let m = pareto_model ~theta ~alpha ~cutoff () in
  let expected t =
    let p x = ((x +. theta) /. theta) ** (1.0 -. alpha) in
    Model.rate_variance m *. (p t -. p cutoff) /. (p 0.0 -. p cutoff)
  in
  List.iter
    (fun t ->
      check_close ~eps:1e-10
        (Printf.sprintf "phi(%g)" t)
        (expected t) (Model.covariance m t))
    [ 0.1; 0.5; 1.0; 2.0; 2.9 ]

let test_covariance_matches_monte_carlo () =
  (* The model's phi(t) = sigma^2 Pr{tau_res >= t} against an empirical
     autocovariance of a sampled path. *)
  let m = pareto_model ~theta:0.3 ~alpha:1.6 ~cutoff:5.0 () in
  let rng = Lrd_rng.Rng.create ~seed:2025L in
  let slot = 0.05 in
  let trace = Model.sample_trace m rng ~slots:400_000 ~slot in
  let acv =
    Lrd_stats.Autocorr.autocovariance trace.Lrd_trace.Trace.rates ~max_lag:40
  in
  (* Slot averaging smooths lag 0; compare at a few multi-slot lags. *)
  List.iter
    (fun lag ->
      let t = float_of_int lag *. slot in
      check_close ~eps:0.1
        (Printf.sprintf "acv at %g" t)
        (Model.covariance m t) acv.(lag))
    [ 4; 8; 16 ]

let test_sample_epochs_statistics () =
  let m = pareto_model ~theta:0.4 ~alpha:1.8 ~cutoff:2.0 () in
  let rng = Lrd_rng.Rng.create ~seed:31L in
  let epochs = Model.sample_epochs m rng ~n:100_000 in
  let durations = Array.map snd epochs in
  let rates = Array.map fst epochs in
  check_close ~eps:0.02 "mean epoch" (Model.mean_epoch m)
    (Lrd_numerics.Array_ops.mean durations);
  check_close ~eps:0.02 "mean rate" 1.0 (Lrd_numerics.Array_ops.mean rates)

let test_fit_from_trace_recovers_marginal () =
  (* Fit on a sampled path of a known model: marginal mean and epoch
     scale must come back close. *)
  let rng = Lrd_rng.Rng.create ~seed:17L in
  let trace =
    Lrd_trace.Video.generate_short rng ~n:16_384
  in
  let fitted = Model.fit_from_trace ~hurst:0.83 trace in
  check_close ~eps:1e-6 "marginal mean preserved"
    (Lrd_trace.Trace.mean trace)
    (Model.mean_rate fitted);
  (* Theta reproduces the measured mean epoch through eq. 25. *)
  let measured = Lrd_trace.Epochs.mean_epoch_duration ~bins:50 trace in
  check_close ~eps:1e-9 "epoch matched" measured (Model.mean_epoch fitted)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_mean () =
  let m = exp_model 2.0 in
  let w = Workload.create m ~service_rate:1.5 in
  (* E[W] = E[T] (mean - c) = 2 * (1 - 1.5). *)
  check_close "mean" (-1.0) (Workload.mean w)

let test_workload_survival_two_sided () =
  (* Deterministic epochs of length 1: W = lambda - c exactly. *)
  let m =
    Model.create ~marginal:onoff_marginal
      ~interarrival:(Lrd_dist.Interarrival.deterministic ~value:1.0)
  in
  let w = Workload.create m ~service_rate:1.5 in
  (* W = -1.5 w.p. 1/2, +0.5 w.p. 1/2. *)
  check_close "ge -2" 1.0 (Workload.survival_ge w (-2.0));
  check_close "ge -1.5" 1.0 (Workload.survival_ge w (-1.5));
  check_close "gt -1.5" 0.5 (Workload.survival_gt w (-1.5));
  check_close "ge 0" 0.5 (Workload.survival_ge w 0.0);
  check_close "ge 0.5" 0.5 (Workload.survival_ge w 0.5);
  check_close "gt 0.5" 0.0 (Workload.survival_gt w 0.5);
  check_close "ge 1" 0.0 (Workload.survival_ge w 1.0)

let test_workload_survival_monotone_and_bounded () =
  let m = pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:4.0 () in
  let w = Workload.create m ~service_rate:1.2 in
  let xs = Lrd_numerics.Array_ops.linspace (-10.0) 10.0 101 in
  let prev = ref 1.1 in
  Array.iter
    (fun x ->
      let v = Workload.survival_ge w x in
      if v > !prev +. 1e-12 then Alcotest.failf "not monotone at %g" x;
      if v < 0.0 || v > 1.0 then Alcotest.failf "out of [0,1] at %g" x;
      if Workload.survival_gt w x > v +. 1e-12 then
        Alcotest.failf "gt above ge at %g" x;
      prev := v)
    xs

let test_workload_max_increment () =
  let m = pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:4.0 () in
  let w = Workload.create m ~service_rate:1.2 in
  check_close "cutoff * (peak - c)" (4.0 *. 0.8) (Workload.max_increment w);
  let all_below = Workload.create m ~service_rate:3.0 in
  check_close "no growth" 0.0 (Workload.max_increment all_below);
  let unbounded =
    Workload.create
      (pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:Float.infinity ())
      ~service_rate:1.2
  in
  Alcotest.(check bool) "unbounded" true
    (Workload.max_increment unbounded = Float.infinity)

let test_expected_overflow_closed_form () =
  (* Against the paper's closed form (display after eq. 14). *)
  let theta = 0.4 and alpha = 1.5 and cutoff = 6.0 in
  let m = pareto_model ~theta ~alpha ~cutoff () in
  let c = 1.25 in
  let w = Workload.create m ~service_rate:c in
  let buffer = 2.0 in
  let paper_formula x =
    (* Only the rate 2 exceeds c; pi = 0.5, delta = 0.75. *)
    let delta = 2.0 -. c in
    if (cutoff *. delta) -. buffer +. x <= 0.0 then 0.0
    else
      theta /. (alpha -. 1.0) *. 0.5 *. delta
      *. ((((buffer -. x) /. (theta *. delta)) +. 1.0) ** (1.0 -. alpha)
         -. (((cutoff /. theta) +. 1.0) ** (1.0 -. alpha)))
  in
  List.iter
    (fun x ->
      check_close ~eps:1e-10
        (Printf.sprintf "overflow at %g" x)
        (paper_formula x)
        (Workload.expected_overflow w ~buffer ~occupancy:x))
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ]

let test_expected_overflow_monte_carlo () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let c = 1.25 in
  let w = Workload.create m ~service_rate:c in
  let buffer = 2.0 and occupancy = 1.0 in
  let rng = Lrd_rng.Rng.create ~seed:4L in
  let n = 500_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let rate, dur =
      match Model.sample_epochs m rng ~n:1 with
      | [| (r, d) |] -> (r, d)
      | _ -> assert false
    in
    let increment = (rate -. c) *. dur in
    acc := !acc +. Float.max 0.0 (increment -. (buffer -. occupancy))
  done;
  check_close ~eps:0.03 "monte carlo"
    (!acc /. float_of_int n)
    (Workload.expected_overflow w ~buffer ~occupancy)

let test_expected_overflow_monotone_in_occupancy () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let prev = ref (-1.0) in
  List.iter
    (fun x ->
      let v = Workload.expected_overflow w ~buffer:2.0 ~occupancy:x in
      if v < !prev -. 1e-12 then Alcotest.failf "not increasing at %g" x;
      prev := v)
    [ 0.0; 0.4; 0.8; 1.2; 1.6; 2.0 ]

let test_zero_buffer_loss_formula () =
  let m = exp_model 1.0 in
  let w = Workload.create m ~service_rate:1.25 in
  (* E[(lambda - c)^+] / mean = 0.5 * 0.75 / 1 = 0.375. *)
  check_close "zero buffer" 0.375 (Workload.zero_buffer_loss w)

let test_discretize_bins_sum_to_one () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let bins = Workload.discretize w ~buffer:2.0 ~bins:64 in
  Alcotest.(check int) "length" 129 (Array.length bins.Workload.lower);
  check_close ~eps:1e-12 "lower mass" 1.0
    (Lrd_numerics.Array_ops.sum bins.Workload.lower);
  check_close ~eps:1e-12 "upper mass" 1.0
    (Lrd_numerics.Array_ops.sum bins.Workload.upper)

let test_discretize_stochastic_ordering () =
  (* The ceiling pmf must stochastically dominate the floor pmf: for
     every threshold, the upper chain has at least as much mass above. *)
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let bins = Workload.discretize w ~buffer:2.0 ~bins:64 in
  let tail a k =
    let n = Array.length a in
    Lrd_numerics.Summation.kahan_slice a ~pos:k ~len:(n - k)
  in
  for k = 0 to 128 do
    if tail bins.Workload.upper k < tail bins.Workload.lower k -. 1e-12 then
      Alcotest.failf "ordering violated at bin %d" k
  done

(* ------------------------------------------------------------------ *)
(* Solver *)

let test_solver_zero_buffer_closed_form () =
  let m = exp_model 1.0 in
  let r = Solver.solve m ~service_rate:1.25 ~buffer:0.0 in
  check_close "B=0" 0.375 r.Solver.loss;
  Alcotest.(check bool) "converged" true r.Solver.converged

let test_solver_underloaded_is_zero () =
  (* All rates below the service rate: loss must be exactly zero. *)
  let m = exp_model 1.0 in
  let r = Solver.solve m ~service_rate:2.5 ~buffer:1.0 in
  check_close "no loss" 0.0 r.Solver.loss

let test_solver_bounds_bracket () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let r = Solver.solve m ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "lower <= upper" true
    (r.Solver.lower_bound <= r.Solver.upper_bound);
  Alcotest.(check bool) "loss inside" true
    (r.Solver.loss >= r.Solver.lower_bound
    && r.Solver.loss <= r.Solver.upper_bound);
  Alcotest.(check bool) "converged" true r.Solver.converged;
  (* The paper's 20% gap criterion. *)
  Alcotest.(check bool) "gap criterion" true
    (r.Solver.upper_bound -. r.Solver.lower_bound
    <= 0.2 *. ((r.Solver.upper_bound +. r.Solver.lower_bound) /. 2.0)
       +. 1e-12)

let test_solver_matches_simulation_exponential () =
  let m = exp_model 1.0 in
  let c = 1.25 and buffer = 2.0 in
  let r = Solver.solve m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:42L in
  let epochs = Model.sample_epochs m rng ~n:2_000_000 in
  let sim = Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| buffer |] in
  let stats =
    (Lrd_fluidsim.Queue_sim.run sim ~rates:(Array.map fst epochs)
       ~durations:(Array.map snd epochs)).(0)
  in
  check_close ~eps:0.02 "solver vs simulation"
    (Lrd_fluidsim.Queue_sim.loss_rate stats)
    r.Solver.loss

let test_solver_matches_simulation_truncated_pareto () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  let c = 1.25 and buffer = 1.0 in
  let r = Solver.solve m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:43L in
  let epochs = Model.sample_epochs m rng ~n:2_000_000 in
  let sim = Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| buffer |] in
  let stats =
    (Lrd_fluidsim.Queue_sim.run sim ~rates:(Array.map fst epochs)
       ~durations:(Array.map snd epochs)).(0)
  in
  check_close ~eps:0.05 "solver vs simulation"
    (Lrd_fluidsim.Queue_sim.loss_rate stats)
    r.Solver.loss

let test_solver_loss_decreasing_in_buffer () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let prev = ref 1.0 in
  List.iter
    (fun b ->
      let r = Solver.solve m ~service_rate:1.25 ~buffer:b in
      if r.Solver.loss > !prev +. 1e-9 then
        Alcotest.failf "loss grew at B=%g" b;
      prev := r.Solver.loss)
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

let test_solver_loss_increasing_in_cutoff () =
  let loss cutoff =
    let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff () in
    (Solver.solve m ~service_rate:1.25 ~buffer:2.0).Solver.loss
  in
  let prev = ref 0.0 in
  List.iter
    (fun tc ->
      let l = loss tc in
      (* 20%-tolerance bounds leave some slack; require no big drop. *)
      if l < !prev *. 0.9 then Alcotest.failf "loss dropped at Tc=%g" tc;
      prev := l)
    [ 0.5; 1.0; 2.0; 5.0; 20.0; 100.0; Float.infinity ]

let test_solver_loss_increasing_in_utilization () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let loss u = (Solver.solve_utilization m ~utilization:u ~buffer_seconds:1.0).Solver.loss in
  let l1 = loss 0.5 and l2 = loss 0.7 and l3 = loss 0.9 in
  Alcotest.(check bool) "0.5 < 0.7" true (l1 <= l2);
  Alcotest.(check bool) "0.7 < 0.9" true (l2 <= l3)

let test_solver_respects_max_iterations () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let params =
    { Solver.default_params with max_iterations = 4; check_every = 2 }
  in
  let r = Solver.solve ~params m ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "iterations bounded" true (r.Solver.iterations <= 4)

let test_solver_direct_matches_fft () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  let solve conv =
    (Solver.solve
       ~params:{ Solver.default_params with convolution = conv }
       m ~service_rate:1.25 ~buffer:1.0)
      .Solver.loss
  in
  check_close ~eps:1e-6 "direct vs fft" (solve `Direct) (solve `Fft)

let test_solver_cold_restart_same_answer () =
  let m = pareto_model ~theta:0.05 ~alpha:1.4 ~cutoff:0.5 () in
  let warm = Solver.solve m ~service_rate:1.25 ~buffer:2.0 in
  let cold =
    Solver.solve
      ~params:{ Solver.default_params with warm_restart = false }
      m ~service_rate:1.25 ~buffer:2.0
  in
  (* Both are certified bounds on the same quantity: intervals overlap. *)
  Alcotest.(check bool) "intervals overlap" true
    (warm.Solver.lower_bound <= cold.Solver.upper_bound +. 1e-12
    && cold.Solver.lower_bound <= warm.Solver.upper_bound +. 1e-12)

let test_solver_negligible_loss_reports_zero () =
  (* Deep-buffer low-utilization case: upper bound sinks below 1e-10. *)
  let m = exp_model 0.01 in
  let r = Solver.solve m ~service_rate:1.9 ~buffer:50.0 in
  check_close "zero" 0.0 r.Solver.loss;
  Alcotest.(check bool) "converged" true r.Solver.converged

let test_solver_rejects_bad_input () =
  let m = exp_model 1.0 in
  Alcotest.check_raises "service rate"
    (Invalid_argument "Solver.solve: service rate must be positive") (fun () ->
      ignore (Solver.solve m ~service_rate:0.0 ~buffer:1.0));
  Alcotest.check_raises "buffer"
    (Invalid_argument "Solver.solve: buffer must be nonnegative") (fun () ->
      ignore (Solver.solve m ~service_rate:1.0 ~buffer:(-1.0)))

let test_solver_golden_matrix () =
  (* Bit-level regression guard for the workspace/dual-channel rewrite:
     bounds captured from the pre-rewrite solver on a fixed matrix of
     models and buffers must be reproduced within 1e-12. *)
  let abs_close msg expected actual =
    if Float.abs (expected -. actual) > 1e-12 then
      Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual
  in
  let cases =
    [
      ( "exp-b2",
        (fun () -> Solver.solve (exp_model 1.0) ~service_rate:1.25 ~buffer:2.0),
        0.13421694926699876,
        0.13739770201764384 );
      ( "pareto-b2",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:2.0),
        0.10220519151258785,
        0.11430183756186045 );
      ( "zero-buffer",
        (fun () -> Solver.solve (exp_model 1.0) ~service_rate:1.25 ~buffer:0.0),
        0.375,
        0.375 );
      ( "deep-buffer",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:8.0),
        0.012259692007597899,
        0.014477594113131442 );
      ( "pareto-shallow",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:0.5),
        0.22507759222467275,
        0.22739642852406491 );
    ]
  in
  List.iter
    (fun (name, solve, lower, upper) ->
      let r = solve () in
      abs_close (name ^ " lower") lower r.Solver.lower_bound;
      abs_close (name ^ " upper") upper r.Solver.upper_bound)
    cases

let test_workspace_step_does_not_allocate () =
  (* The acceptance invariant of the zero-allocation rewrite: once a
     workspace is warm, [Workspace.step] must not touch the minor heap.
     Only meaningful in native code — bytecode boxes every float. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let workload = Workload.create m ~service_rate:1.25 in
  List.iter
    (fun conv ->
      let ws = Solver.Workspace.make ~convolution:conv workload ~buffer:2.0 ~m:128 in
      for _ = 1 to 16 do
        Solver.Workspace.step ws
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 64 do
        Solver.Workspace.step ws
      done;
      let allocated = Gc.minor_words () -. w0 in
      match Sys.backend_type with
      | Sys.Native ->
          if allocated > 0.0 then
            Alcotest.failf "steady-state step allocated %.0f minor words"
              allocated
      | Sys.Bytecode | Sys.Other _ -> ())
    [ `Fft; `Direct ]

let test_workspace_tables_allocation_bound () =
  (* Workspace construction is rate-major: one batch law call per rate
     and unboxed per-point accumulators, so building the survival grid
     (eqs. 21-22) and the overflow table (eq. 23) of a 50-rate marginal
     at m = 4096 allocates a few minor words per grid point, not one
     boxed float per rate and point.  Native code only. *)
  let marginal =
    Lrd_dist.Marginal.of_points
      (List.init 50 (fun i ->
           (0.1 *. float_of_int i, 1.0 +. float_of_int (i mod 7))))
  in
  let m = pareto_model ~marginal ~theta:0.05 ~alpha:1.4 ~cutoff:10.0 () in
  let c = Model.service_rate_for_utilization m ~utilization:0.8 in
  let buffer = 0.5 *. c and bins = 4096 in
  let workload = Workload.create ~memoize:true m ~service_rate:c in
  let w0 = Gc.minor_words () in
  ignore (Workload.discretize workload ~buffer ~bins);
  ignore (Workload.overflow_table workload ~buffer ~bins);
  let per_point = (Gc.minor_words () -. w0) /. float_of_int ((2 * bins) + 1) in
  match Sys.backend_type with
  | Sys.Native ->
      if per_point >= 16.0 then
        Alcotest.failf "table construction allocated %.1f minor words per point"
          per_point
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Resumable solver states *)

(* Any partition of the iteration stream into [State.advance] calls must
   reproduce the one-shot [solve] bit for bit: bounds are checked after
   every [check_every]-th step (or at the budget) regardless of how the
   steps are grouped, so the whole event sequence — checks, refinements,
   stopping — is a function of the total step count alone. *)
let prop_state_slicing_bitwise =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  let reference = lazy (Solver.solve m ~service_rate:1.25 ~buffer:2.0) in
  QCheck.Test.make ~name:"State.advance slicing reproduces solve bitwise"
    ~count:40
    (QCheck.make
       ~print:QCheck.Print.(list int)
       QCheck.Gen.(list_size (int_range 0 12) (int_range 1 700)))
    (fun slices ->
      let reference = Lazy.force reference in
      let st = Solver.State.create m ~service_rate:1.25 ~buffer:2.0 in
      List.iter (fun n -> Solver.State.advance st ~iterations:n) slices;
      Solver.State.run st;
      let r = Solver.State.result st in
      r.Solver.loss = reference.Solver.loss
      && r.Solver.lower_bound = reference.Solver.lower_bound
      && r.Solver.upper_bound = reference.Solver.upper_bound
      && r.Solver.iterations = reference.Solver.iterations
      && r.Solver.bins = reference.Solver.bins
      && r.Solver.refinements = reference.Solver.refinements
      && r.Solver.converged = reference.Solver.converged)

let test_state_seed_from_neighbour () =
  (* Two models differing only in theta, same service rate and buffer:
     the occupancy grids coincide, so seeding must be accepted — and the
     warm-started interval must stay a certified bracket, consistent
     with an independent cold solve of the same cell. *)
  let model theta = pareto_model ~theta ~alpha:1.4 ~cutoff:2.0 () in
  let src = Solver.State.create (model 0.2) ~service_rate:1.25 ~buffer:2.0 in
  Solver.State.run src;
  let cold = Solver.State.create (model 0.22) ~service_rate:1.25 ~buffer:2.0 in
  Solver.State.run cold;
  let warm = Solver.State.create (model 0.22) ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "seeding accepted" true
    (Solver.State.seed_from ~src warm);
  Alcotest.(check bool) "marked warm-started" true
    (Solver.State.warm_started warm);
  Solver.State.run warm;
  let w = Solver.State.result warm and c = Solver.State.result cold in
  Alcotest.(check bool) "warm interval certified" true
    (w.Solver.lower_bound <= w.Solver.upper_bound);
  Alcotest.(check bool) "warm converged" true w.Solver.converged;
  (* Both intervals bracket the same true loss. *)
  Alcotest.(check bool) "intervals overlap" true
    (w.Solver.lower_bound <= c.Solver.upper_bound +. 1e-12
    && c.Solver.lower_bound <= w.Solver.upper_bound +. 1e-12);
  (* The cold point estimate is the midpoint of an interval that also
     contains the truth, so it can sit at most half the cold width
     outside the warm interval. *)
  let slack =
    (0.5 *. (c.Solver.upper_bound -. c.Solver.lower_bound)) +. 1e-12
  in
  Alcotest.(check bool) "cold estimate inside warm interval" true
    (c.Solver.loss >= w.Solver.lower_bound -. slack
    && c.Solver.loss <= w.Solver.upper_bound +. slack);
  (* The seeded workspace is built in the first advance, but the state
     already reports the resolution it will be built at: the source's,
     not its own (coarser) initial grid, which a seed replaces. *)
  let seeded () =
    let params = { Solver.default_params with Solver.initial_bins = 32 } in
    let st =
      Solver.State.create ~params (model 0.22) ~service_rate:1.25 ~buffer:2.0
    in
    Alcotest.(check bool)
      "seeding accepted" true
      (Solver.State.seed_from ~src st);
    st
  in
  Alcotest.(check int) "source bins before the first advance"
    (Solver.State.bins src) (Solver.State.bins (seeded ()));
  (* Stopping a seeded state before any advance evaluates the seeded
     pmfs: finite, ordered bounds. *)
  let stopped = seeded () in
  Solver.State.stop stopped;
  let r = Solver.State.result stopped in
  Alcotest.(check bool) "stop before advance: finite certified bounds" true
    (Float.is_finite r.Solver.lower_bound
    && Float.is_finite r.Solver.upper_bound
    && r.Solver.lower_bound <= r.Solver.upper_bound);
  Alcotest.(check int) "stop before advance: source bins"
    (Solver.State.bins src) r.Solver.bins;
  (* Slicing a seeded state is as exact as slicing a cold one. *)
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 20 do
    let st = seeded () in
    List.iter
      (fun n -> Solver.State.advance st ~iterations:n)
      (List.init (Random.State.int rng 10) (fun _ ->
           Random.State.int rng 200));
    Solver.State.run st;
    let s = Solver.State.result st in
    Alcotest.(check bool) "seeded slices = straight run, bitwise" true
      (Int64.bits_of_float s.Solver.loss = Int64.bits_of_float w.Solver.loss
      && Int64.bits_of_float s.Solver.lower_bound
         = Int64.bits_of_float w.Solver.lower_bound
      && Int64.bits_of_float s.Solver.upper_bound
         = Int64.bits_of_float w.Solver.upper_bound
      && s.Solver.iterations = w.Solver.iterations
      && s.Solver.bins = w.Solver.bins
      && s.Solver.refinements = w.Solver.refinements
      && s.Solver.converged = w.Solver.converged)
  done;
  (* A buffer mismatch means a different occupancy grid: seeding must
     fall back to a cold start rather than blit incompatible pmfs. *)
  let other = Solver.State.create (model 0.22) ~service_rate:1.25 ~buffer:1.0 in
  Alcotest.(check bool) "buffer mismatch rejected" false
    (Solver.State.seed_from ~src other);
  Alcotest.(check bool) "rejected state stays cold" false
    (Solver.State.warm_started other)

let test_state_stop_reports_certified_bounds () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  let st = Solver.State.create m ~service_rate:1.25 ~buffer:2.0 in
  Solver.State.advance st ~iterations:32;
  Solver.State.stop st;
  Alcotest.(check bool) "finished" true (Solver.State.finished st);
  Alcotest.(check bool) "not converged" false (Solver.State.converged st);
  let r = Solver.State.result st in
  Alcotest.(check bool) "bounds still certified" true
    (r.Solver.lower_bound <= r.Solver.upper_bound);
  let full = Solver.solve m ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "early interval contains converged interval" true
    (r.Solver.lower_bound <= full.Solver.lower_bound +. 1e-12
    && full.Solver.upper_bound <= r.Solver.upper_bound +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Snapshots (Fig. 2 machinery) *)

let test_snapshots_monotone_in_n () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let snaps =
    Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:2.0 ~bins:100
      ~at:[ 5; 10; 30 ]
  in
  Alcotest.(check int) "three snapshots" 3 (List.length snaps);
  let losses_lower = List.map (fun s -> s.Solver.lower_loss) snaps in
  let losses_upper = List.map (fun s -> s.Solver.upper_loss) snaps in
  (* Proposition II.1: lower loss increasing in n, upper decreasing. *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "lower increasing" true (increasing losses_lower);
  Alcotest.(check bool) "upper decreasing" true
    (increasing (List.rev losses_upper));
  (* Bracket at every n. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "bracket" true
        (s.Solver.lower_loss <= s.Solver.upper_loss +. 1e-12))
    snaps

let test_snapshots_pmfs_are_distributions () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let snaps =
    Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:2.0 ~bins:50
      ~at:[ 0; 7 ]
  in
  List.iter
    (fun s ->
      check_close ~eps:1e-9 "lower mass" 1.0
        (Lrd_numerics.Array_ops.sum s.Solver.lower_pmf);
      check_close ~eps:1e-9 "upper mass" 1.0
        (Lrd_numerics.Array_ops.sum s.Solver.upper_pmf))
    snaps;
  (* At n = 0 the chains are the initial empty/full distributions. *)
  match snaps with
  | first :: _ ->
      check_close "starts empty" 1.0 first.Solver.lower_pmf.(0);
      check_close "starts full" 1.0 first.Solver.upper_pmf.(50)
  | [] -> Alcotest.fail "no snapshots"

let test_snapshots_reject_unsorted () =
  let m = exp_model 1.0 in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Solver.iterate_snapshots: iteration list must be ascending")
    (fun () ->
      ignore
        (Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:1.0 ~bins:10
           ~at:[ 10; 5 ]))

(* ------------------------------------------------------------------ *)
(* Occupancy distribution *)

let test_occupancy_pmfs_are_distributions () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  check_close ~eps:1e-9 "lower mass" 1.0
    (Lrd_numerics.Array_ops.sum occ.Solver.lower_pmf);
  check_close ~eps:1e-9 "upper mass" 1.0
    (Lrd_numerics.Array_ops.sum occ.Solver.upper_pmf);
  Alcotest.(check bool) "step positive" true (occ.Solver.step > 0.0)

let test_occupancy_bounds_order () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  let lo, hi = Solver.mean_occupancy occ in
  Alcotest.(check bool) "mean ordered" true (lo <= hi);
  List.iter
    (fun threshold ->
      let l, h = Solver.occupancy_ccdf occ ~threshold in
      if l > h +. 1e-12 then Alcotest.failf "ccdf order at %g" threshold)
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ];
  let q_lo, q_hi = Solver.occupancy_quantile occ ~p:0.9 in
  Alcotest.(check bool) "quantile ordered" true (q_lo <= q_hi)

let test_occupancy_brackets_simulation () =
  (* The certified occupancy intervals must contain the Monte Carlo
     epoch-point occupancy statistics. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let c = 1.25 and buffer = 2.0 in
  let _, occ = Solver.solve_detailed m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:71L in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
  let samples =
    Array.map
      (fun (rate, duration) ->
        let q = Lrd_fluidsim.Queue_sim.occupancy sim in
        ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
        q)
      (Model.sample_epochs m rng ~n:500_000)
  in
  let lo, hi = Solver.mean_occupancy occ in
  let simulated = Lrd_numerics.Array_ops.mean samples in
  (* Allow a little Monte Carlo slack at the interval edges. *)
  Alcotest.(check bool) "mean inside" true
    (simulated >= lo -. 0.02 && simulated <= hi +. 0.02);
  List.iter
    (fun threshold ->
      let l, h = Solver.occupancy_ccdf occ ~threshold in
      let s =
        float_of_int
          (Array.fold_left
             (fun acc q -> if q >= threshold then acc + 1 else acc)
             0 samples)
        /. float_of_int (Array.length samples)
      in
      if not (s >= l -. 0.02 && s <= h +. 0.02) then
        Alcotest.failf "ccdf at %g: sim %.4f outside [%.4f, %.4f]" threshold
          s l h)
    [ 0.2; 1.0; 1.8 ]

let test_occupancy_zero_buffer_point_mass () =
  let m = exp_model 1.0 in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:0.0 in
  check_close "mass at zero" 1.0 occ.Solver.lower_pmf.(0);
  let lo, hi = Solver.mean_occupancy occ in
  check_close "mean lo" 0.0 lo;
  check_close "mean hi" 0.0 hi

let test_virtual_delay_scales () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  let mean_lo, _ = Solver.mean_occupancy occ in
  let delay_lo, _ = Solver.mean_virtual_delay occ ~service_rate:1.25 in
  check_close ~eps:1e-12 "delay = q / c" (mean_lo /. 1.25) delay_lo

(* ------------------------------------------------------------------ *)
(* Provision *)

let provision_model =
  lazy
    (let marginal =
       Lrd_dist.Marginal.of_points [ (0.0, 0.6); (1.5, 0.3); (3.0, 0.1) ]
     in
     Model.cutoff_pareto ~marginal ~theta:0.05 ~alpha:1.5 ~cutoff:2.0)

let test_provision_buffer_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.buffer_for_loss model ~utilization:0.6 ~target:1e-4
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved b ->
      Alcotest.(check bool) "positive" true (b >= 0.0);
      (* The returned buffer meets the target... *)
      let loss =
        (Solver.solve_utilization model ~utilization:0.6 ~buffer_seconds:b)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss <= 1e-4);
      (* ... and a much smaller buffer does not. *)
      if b > 0.01 then begin
        let loss_small =
          (Solver.solve_utilization model ~utilization:0.6
             ~buffer_seconds:(b /. 4.0))
            .Solver.loss
        in
        Alcotest.(check bool) "tight-ish" true (loss_small > 1e-4)
      end

let test_provision_buffer_unachievable () =
  (* Untruncated LRD source: the buffer axis cannot reach a deep target
     within a small search limit. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let model =
    Model.cutoff_pareto ~marginal ~theta:0.1 ~alpha:1.2
      ~cutoff:Float.infinity
  in
  match
    Provision.buffer_for_loss ~max_buffer_seconds:2.0 model ~utilization:0.8
      ~target:1e-8
  with
  | Provision.Unachievable_within limit -> check_close "limit" 2.0 limit
  | Provision.Achieved b -> Alcotest.failf "unexpectedly achieved at %g" b

let test_provision_utilization_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.utilization_for_loss model ~buffer_seconds:0.5 ~target:1e-4
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved u ->
      Alcotest.(check bool) "in range" true (u > 0.0 && u < 1.0);
      let loss =
        (Solver.solve_utilization model ~utilization:u ~buffer_seconds:0.5)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss <= 1e-4)

let test_provision_streams_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.streams_for_loss model ~utilization:0.7 ~buffer_seconds:0.2
      ~target:1e-5
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved n ->
      let n = int_of_float n in
      Alcotest.(check bool) "count positive" true (n >= 1);
      let loss k =
        let marginal =
          Lrd_dist.Marginal.superpose model.Model.marginal ~n:k
        in
        (Solver.solve_utilization
           { model with Model.marginal }
           ~utilization:0.7 ~buffer_seconds:0.2)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss n <= 1e-5);
      if n > 1 then
        Alcotest.(check bool) "minimal" true (loss (n - 1) > 1e-5)

let test_provision_rejects_bad_target () =
  let model = Lazy.force provision_model in
  Alcotest.check_raises "too deep"
    (Invalid_argument "Provision: target loss must lie in [1e-10, 1)")
    (fun () ->
      ignore (Provision.buffer_for_loss model ~utilization:0.5 ~target:1e-12))

(* ------------------------------------------------------------------ *)
(* Asymptotics *)

let test_kappa_values () =
  check_close ~eps:1e-12 "kappa 0.5" 0.5 (Asymptotics.kappa 0.5);
  (* H^H (1-H)^(1-H) at H = 0.8. *)
  check_close ~eps:1e-12 "kappa 0.8"
    ((0.8 ** 0.8) *. (0.2 ** 0.2))
    (Asymptotics.kappa 0.8)

let test_fbm_tail_shape () =
  let tail level =
    Asymptotics.fbm_tail ~mean:5.0 ~variance_coefficient:0.5 ~hurst:0.8
      ~service_rate:6.0 ~level
  in
  Alcotest.(check bool) "decreasing" true (tail 1.0 > tail 2.0);
  (* Weibull shape: -log P linear in b^(2-2H). *)
  let x1 = -.log (tail 1.0) and x4 = -.log (tail 4.0) in
  check_close ~eps:1e-9 "weibull scaling" (4.0 ** 0.4) (x4 /. x1);
  check_close "exponent" 0.4 (Asymptotics.fbm_tail_exponent ~hurst:0.8)

let test_onoff_tail_shape () =
  let tail level =
    Asymptotics.onoff_tail ~peak:2.0 ~mean_on:0.5 ~mean_off:0.5 ~alpha:1.5
      ~service_rate:1.4 ~level
  in
  Alcotest.(check bool) "decreasing" true (tail 1.0 > tail 10.0);
  (* Hyperbolic: P(b) b^(alpha-1) converges to a constant. *)
  let r1 = tail 100.0 *. (100.0 ** 0.5) in
  let r2 = tail 10_000.0 *. (10_000.0 ** 0.5) in
  check_close ~eps:0.1 "hyperbolic scaling" r1 r2

let test_exponential_decay_rate_known_case () =
  (* Two rates 0 and 2, exponential epochs mean 1, c = 1.25:
     0.5 / (1 + 1.25 d) + 0.5 / (1 - 0.75 d) = 1
     <=> 0.25 d = 0.9375 d^2  =>  d = 4/15. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let delta =
    Asymptotics.exponential_decay_rate ~marginal ~mean_epoch:1.0
      ~service_rate:1.25
  in
  check_close ~eps:1e-9 "closed form" (4.0 /. 15.0) delta

let test_exponential_decay_rate_matches_simulation () =
  (* Empirical log-tail slope of the infinite-buffer occupancy. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let mean_epoch = 1.0 and c = 1.25 in
  let delta =
    Asymptotics.exponential_decay_rate ~marginal ~mean_epoch ~service_rate:c
  in
  let model =
    Model.create ~marginal
      ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_epoch)
  in
  let rng = Lrd_rng.Rng.create ~seed:13L in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer:1e9 () in
  let samples =
    Array.map
      (fun (rate, duration) ->
        ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
        Lrd_fluidsim.Queue_sim.occupancy sim)
      (Model.sample_epochs model rng ~n:400_000)
  in
  let ccdf b =
    float_of_int
      (Array.fold_left (fun acc q -> if q > b then acc + 1 else acc) 0 samples)
    /. float_of_int (Array.length samples)
  in
  let slope = (log (ccdf 1.0) -. log (ccdf 4.0)) /. 3.0 in
  check_close ~eps:0.1 "empirical decay" delta slope

let test_exponential_decay_rate_rejects_unstable () =
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  Alcotest.check_raises "unstable"
    (Invalid_argument "Asymptotics.exponential_decay_rate: unstable queue")
    (fun () ->
      ignore
        (Asymptotics.exponential_decay_rate ~marginal ~mean_epoch:1.0
           ~service_rate:0.9))

(* ------------------------------------------------------------------ *)
(* Fitting *)

let test_fitting_for_buffer () =
  let rng = Lrd_rng.Rng.create ~seed:303L in
  let trace = Lrd_trace.Video.generate_short rng ~n:16_384 in
  let model, cutoff =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization:0.8
      ~buffer_seconds:0.1
  in
  Alcotest.(check bool) "finite cutoff" true
    (Float.is_finite cutoff && cutoff > 0.0);
  (* The model's covariance vanishes beyond the fitted horizon. *)
  check_close "cutoff respected" 0.0 (Model.covariance model (cutoff *. 1.01));
  Alcotest.(check bool) "correlated inside" true
    (Model.covariance model (cutoff /. 2.0) > 0.0);
  (* Marginal mean preserved. *)
  check_close ~eps:1e-9 "marginal mean" (Lrd_trace.Trace.mean trace)
    (Model.mean_rate model);
  (* The horizon grows linearly with the design buffer. *)
  let _, cutoff4 =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization:0.8
      ~buffer_seconds:0.4
  in
  check_close ~eps:1e-6 "linear in buffer" (4.0 *. cutoff) cutoff4

let test_fitting_prediction_tracks_full_model () =
  let rng = Lrd_rng.Rng.create ~seed:304L in
  let trace = Lrd_trace.Video.generate_short rng ~n:16_384 in
  let utilization = 0.8 and buffer_seconds = 0.05 in
  let fitted, _ =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization ~buffer_seconds
  in
  let full = Model.fit_from_trace ~hurst:0.83 trace in
  let solve m =
    (Solver.solve_utilization m ~utilization ~buffer_seconds).Solver.loss
  in
  let full_loss = solve full and fitted_loss = solve fitted in
  (* Within a factor of ~2 of the full self-similar fit at the design
     buffer (the loss-vs-cutoff curve converges hyperbolically). *)
  Alcotest.(check bool) "tracks full model" true
    (fitted_loss > full_loss /. 2.5 && fitted_loss <= full_loss *. 1.5)

(* ------------------------------------------------------------------ *)
(* Horizon *)

let test_horizon_estimate_linear_in_buffer () =
  let est b =
    Horizon.estimate ~buffer:b ~mean_epoch:0.1 ~epoch_std:0.2 ~rate_std:1.5 ()
  in
  check_close ~eps:1e-9 "linearity" (2.0 *. est 1.0) (est 2.0);
  check_close ~eps:1e-9 "linearity x5" (5.0 *. est 1.0) (est 5.0)

let test_horizon_estimate_formula () =
  (* Eq. 26 evaluated by hand. *)
  let p = 0.05 in
  let expected =
    3.0 *. 0.1
    /. (2.0 *. sqrt 2.0 *. 0.2 *. 1.5 *. Lrd_numerics.Special.erf_inv p)
  in
  check_close ~eps:1e-12 "eq. 26" expected
    (Horizon.estimate ~no_reset_probability:p ~buffer:3.0 ~mean_epoch:0.1
       ~epoch_std:0.2 ~rate_std:1.5 ())

let test_horizon_estimate_decreasing_in_p () =
  (* Tolerating a larger no-reset probability shortens the horizon. *)
  let est p =
    Horizon.estimate ~no_reset_probability:p ~buffer:1.0 ~mean_epoch:0.1
      ~epoch_std:0.2 ~rate_std:1.5 ()
  in
  Alcotest.(check bool) "decreasing" true (est 0.01 > est 0.2)

let test_horizon_estimate_for_model () =
  (* Finite-cutoff law: finite variance, positive horizon. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let h = Horizon.estimate_for_model m ~buffer:2.0 in
  Alcotest.(check bool) "finite positive" true (h > 0.0 && Float.is_finite h);
  (* Infinite-variance law: eq. 26 degenerates to zero. *)
  let inf_model = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:Float.infinity () in
  check_close "degenerate" 0.0 (Horizon.estimate_for_model inf_model ~buffer:2.0)

let test_horizon_detect () =
  let series =
    [| (1.0, 1e-4); (2.0, 5e-4); (4.0, 7e-4); (8.0, 1e-3); (16.0, 1.05e-3) |]
  in
  (match Horizon.detect series with
  | Some ch -> check_close "detected" 8.0 ch
  | None -> Alcotest.fail "no horizon detected");
  (* A flat series detects at its first point. *)
  (match Horizon.detect [| (1.0, 1e-3); (2.0, 1e-3); (4.0, 1e-3) |] with
  | Some ch -> check_close "flat" 1.0 ch
  | None -> Alcotest.fail "flat series must detect");
  Alcotest.(check (option (float 1e-9))) "empty" None (Horizon.detect [||])

let test_horizon_detect_with_zeros () =
  (* Zeros before the flat region must not count as flat. *)
  let series = [| (1.0, 0.0); (2.0, 7e-4); (4.0, 1e-3); (8.0, 1e-3) |] in
  match Horizon.detect series with
  | Some ch -> check_close "skips zero" 4.0 ch
  | None -> Alcotest.fail "must detect"

let test_critical_time_scale () =
  (* t* = (B / drift) H / (1 - H). *)
  check_close ~eps:1e-12 "formula" (2.0 /. 0.5 *. (0.8 /. 0.2))
    (Horizon.critical_time_scale ~hurst:0.8 ~buffer:2.0 ~drift:0.5);
  (* Linear in the buffer. *)
  check_close ~eps:1e-12 "linear"
    (3.0 *. Horizon.critical_time_scale ~hurst:0.7 ~buffer:1.0 ~drift:0.4)
    (Horizon.critical_time_scale ~hurst:0.7 ~buffer:3.0 ~drift:0.4);
  (* Growing in H: stronger persistence stretches the dominant scale. *)
  Alcotest.(check bool) "grows with H" true
    (Horizon.critical_time_scale ~hurst:0.9 ~buffer:1.0 ~drift:0.4
    > Horizon.critical_time_scale ~hurst:0.6 ~buffer:1.0 ~drift:0.4);
  Alcotest.check_raises "bad hurst"
    (Invalid_argument "Horizon.critical_time_scale: hurst must lie in (0, 1)")
    (fun () ->
      ignore (Horizon.critical_time_scale ~hurst:1.0 ~buffer:1.0 ~drift:1.0))

let test_horizon_detect_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Horizon.detect: cutoffs must be strictly increasing")
    (fun () -> ignore (Horizon.detect [| (2.0, 1.0); (1.0, 1.0) |]))

let test_horizon_empirical_vs_solver () =
  (* Loss as a function of the cutoff must flatten: the detected CH at a
     small buffer should come well before the largest cutoff tried. *)
  let loss cutoff =
    let m = pareto_model ~theta:0.05 ~alpha:1.4 ~cutoff () in
    (Solver.solve m ~service_rate:1.25 ~buffer:0.5).Solver.loss
  in
  let cutoffs = [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |] in
  let series = Array.map (fun tc -> (tc, loss tc)) cutoffs in
  match Horizon.detect ~flatness:0.3 series with
  | Some ch -> Alcotest.(check bool) "flattens early" true (ch <= 16.0)
  | None -> Alcotest.fail "loss never flattened in the cutoff"

(* ------------------------------------------------------------------ *)
(* Properties *)

let small_marginal_gen =
  QCheck.Gen.(
    list_size (int_range 2 6) (pair (float_range 0.0 4.0) (float_range 0.1 2.0)))

let prop_bounds_always_bracket =
  QCheck.Test.make ~name:"solver bounds always bracket the midpoint" ~count:25
    (QCheck.make
       QCheck.Gen.(
         triple small_marginal_gen (float_range 0.3 3.0) (float_range 0.2 3.0)))
    (fun (points, buffer, mean_epoch) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model =
        Model.create ~marginal
          ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_epoch)
      in
      let c = Lrd_dist.Marginal.mean marginal *. 1.3 +. 0.1 in
      let r =
        Solver.solve
          ~params:{ Solver.default_params with max_iterations = 2_000 }
          model ~service_rate:c ~buffer
      in
      let bracketed =
        (* The paper's protocol reports 0 when the upper bound falls
           below 1e-10, which may sit under a tiny positive lower
           bound; that case is legitimate. *)
        (r.Solver.loss = 0.0 && r.Solver.upper_bound < 1e-10)
        || (r.Solver.lower_bound <= r.Solver.loss +. 1e-12
           && r.Solver.loss <= r.Solver.upper_bound +. 1e-12)
      in
      bracketed
      && r.Solver.lower_bound >= -1e-12
      && r.Solver.upper_bound <= 1.0 +. 1e-12)

let prop_bounds_bracket_pareto_epochs =
  QCheck.Test.make ~name:"solver bounds bracket under truncated Pareto epochs"
    ~count:8
    (QCheck.make
       QCheck.Gen.(
         quad small_marginal_gen (float_range 0.05 0.5)
           (float_range 1.1 1.9) (float_range 0.5 10.0)))
    (fun (points, theta, alpha, cutoff) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model = Model.cutoff_pareto ~marginal ~theta ~alpha ~cutoff in
      let c = (Lrd_dist.Marginal.mean marginal *. 1.25) +. 0.1 in
      let r =
        Solver.solve
          ~params:
            {
              Solver.default_params with
              max_iterations = 3_000;
              max_bins = 1_024;
            }
          model ~service_rate:c ~buffer:1.5
      in
      let bracketed =
        (r.Solver.loss = 0.0 && r.Solver.upper_bound < 1e-10)
        || (r.Solver.lower_bound <= r.Solver.loss +. 1e-12
           && r.Solver.loss <= r.Solver.upper_bound +. 1e-12)
      in
      bracketed && r.Solver.lower_bound >= -1e-12
      && r.Solver.upper_bound <= 1.0 +. 1e-12)

let prop_covariance_nonnegative_decreasing =
  QCheck.Test.make ~name:"model covariance is nonnegative and nonincreasing"
    ~count:50
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.05 2.0) (float_range 1.05 1.95)
           (float_range 0.5 20.0)))
    (fun (theta, alpha, cutoff) ->
      let m = pareto_model ~theta ~alpha ~cutoff () in
      let ts = Lrd_numerics.Array_ops.linspace 0.0 (cutoff +. 2.0) 40 in
      let ok = ref true in
      let prev = ref Float.infinity in
      Array.iter
        (fun t ->
          let v = Model.covariance m t in
          if v < -1e-12 || v > !prev +. 1e-12 then ok := false;
          prev := v)
        ts;
      !ok)

(* ------------------------------------------------------------------ *)
(* Transform-domain superposition *)

(* The repeated-squaring kernel against the brute N-fold convolution
   chain the solver engine already trusts: same pmf convolved with
   itself n - 1 times through a planned Convolution.execute_real. *)
let prop_self_convolve_matches_brute =
  QCheck.Test.make ~name:"self_convolve matches brute N-fold convolution"
    ~count:60
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) int)
       QCheck.Gen.(
         pair
           (list_size (int_range 2 16) (float_bound_inclusive 1.0))
           (int_range 2 64)))
    (fun (weights, n) ->
      let pmf = Array.of_list (List.map (fun w -> w +. 0.01) weights) in
      let total = Array.fold_left ( +. ) 0.0 pmf in
      Array.iteri (fun i w -> pmf.(i) <- w /. total) pmf;
      let len = Array.length pmf in
      let out_len = (n * (len - 1)) + 1 in
      let plan =
        Lrd_numerics.Convolution.make_real_plan ~kernel:pmf
          ~max_signal:(out_len - len + 1) ()
      in
      let brute = ref (Array.copy pmf) in
      let dst = Array.make out_len 0.0 in
      for _ = 2 to n do
        Lrd_numerics.Convolution.execute_real plan !brute ~dst;
        brute := Array.sub dst 0 (Array.length !brute + len - 1)
      done;
      let fast = Superpose.self_convolve ~pmf ~n in
      Array.length fast = out_len
      && Array.for_all2
           (fun a b -> Float.abs (a -. Float.max 0.0 b) <= 1e-12)
           fast !brute)

let test_superpose_exact_binomial () =
  (* Two on/off sources: the aggregate is Binomial(2, 0.3) on rates
     {0, 1/2, 1} after per-source renormalization. *)
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  let m = Superpose.superpose ~method_:Superpose.Exact base ~n:2 in
  check_close ~eps:1e-12 "mean" 0.3 (Lrd_dist.Marginal.mean m);
  check_close ~eps:1e-9 "P{rate <= 0.1}" 0.49 (Lrd_dist.Marginal.cdf m 0.1);
  check_close ~eps:1e-9 "P{rate <= 0.6}" 0.91 (Lrd_dist.Marginal.cdf m 0.6);
  check_close ~eps:1e-12 "total mass" 1.0 (Lrd_dist.Marginal.cdf m 1.0)

let test_superpose_heterogeneous_mean () =
  (* Aggregate cumulants add across classes; the per-source mean of the
     mix must come out exactly, on both paths. *)
  let a = Lrd_dist.Marginal.of_points [ (0.0, 0.9); (1.0, 0.1) ] in
  let b = Lrd_dist.Marginal.of_points [ (0.0, 0.95); (16.0, 0.05) ] in
  let classes = [ (a, 60); (b, 10) ] in
  let target = ((60.0 *. 0.1) +. (10.0 *. 16.0 *. 0.05)) /. 70.0 in
  let exact = Superpose.aggregate ~method_:Superpose.Exact classes in
  let edge = Superpose.aggregate ~method_:Superpose.Edgeworth classes in
  check_close ~eps:1e-12 "exact mean" target (Lrd_dist.Marginal.mean exact);
  check_close ~eps:1e-12 "edgeworth mean" target (Lrd_dist.Marginal.mean edge)

let test_superpose_edgeworth_tail_agreement () =
  (* N = 10^4 on/off sources: the exact transform-domain aggregate
     (Binomial(10^4, 0.3)) against the Edgeworth closed form.  The
     documented tolerance (EXPERIMENTS.md): 5e-4 absolute on the
     3-sigma upper tail mass, means equal to 1e-12, stds within 1%. *)
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  let n = 10_000 in
  Alcotest.(check bool) "cost model picks exact at 1e4" true
    (Superpose.decide [ (base, n) ] = Superpose.Exact);
  let exact = Superpose.superpose ~method_:Superpose.Exact base ~n in
  let edge = Superpose.superpose ~method_:Superpose.Edgeworth base ~n in
  check_close ~eps:1e-12 "exact mean" 0.3 (Lrd_dist.Marginal.mean exact);
  check_close ~eps:1e-12 "edgeworth mean" 0.3 (Lrd_dist.Marginal.mean edge);
  let sx = Lrd_dist.Marginal.std exact
  and se = Lrd_dist.Marginal.std edge in
  Alcotest.(check bool) "stds within 1%" true
    (Float.abs (sx -. se) <= 0.01 *. sx);
  let threshold = 0.3 +. (3.0 *. sx) in
  let tail m = 1.0 -. Lrd_dist.Marginal.cdf m threshold in
  let tx = tail exact and te = tail edge in
  Alcotest.(check bool) "tails are nontrivial" true (tx > 1e-4 && te > 1e-4);
  Alcotest.(check bool) "tail masses agree to 5e-4" true
    (Float.abs (tx -. te) <= 5e-4)

let test_superpose_cost_model () =
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  Alcotest.(check bool) "small N exact" true
    (Superpose.decide [ (base, 1_000) ] = Superpose.Exact);
  Alcotest.(check bool) "huge N edgeworth" true
    (Superpose.decide [ (base, 100_000) ] = Superpose.Edgeworth);
  Alcotest.(check bool) "constant class exact" true
    (Superpose.decide [ (Lrd_dist.Marginal.constant 2.0, 1_000_000) ]
    = Superpose.Exact)

let test_superpose_spectrum_multiply_count () =
  (* Binary exponentiation: one squaring per bit below the msb plus one
     multiply per set bit — 1000 = 0b1111101000 costs 9 + 6 = 15. *)
  Lrd_obs.Obs.set_enabled true;
  Lrd_obs.Obs.reset ();
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  ignore (Superpose.superpose ~method_:Superpose.Exact base ~n:1000);
  let snapshot = Lrd_obs.Obs.snapshot () in
  Lrd_obs.Obs.set_enabled false;
  Lrd_obs.Obs.reset ();
  let counter name =
    match Lrd_obs.Obs.find snapshot name with
    | Some (Lrd_obs.Obs.Counter { total; _ }) -> total
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "spectrum multiplies" 15
    (counter "superpose/spectrum_multiplies");
  Alcotest.(check int) "exact path taken" 1
    (counter "superpose/exact_path_taken");
  Alcotest.(check int) "fast path not taken" 0
    (counter "superpose/fast_path_taken")

let test_superpose_rejects_bad_input () =
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  Alcotest.check_raises "empty"
    (Invalid_argument "Superpose: empty class list") (fun () ->
      ignore (Superpose.aggregate []));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Superpose: negative class count") (fun () ->
      ignore (Superpose.aggregate [ (base, -1) ]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Superpose: all class counts are zero") (fun () ->
      ignore (Superpose.aggregate [ (base, 0) ]));
  Alcotest.check_raises "n < 1"
    (Invalid_argument "Superpose.superpose: n must be >= 1") (fun () ->
      ignore (Superpose.superpose base ~n:0))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "model",
        [
          Alcotest.test_case "hurst-alpha mapping" `Quick
            test_hurst_alpha_mapping;
          Alcotest.test_case "moments (eqs. 2, 4)" `Quick test_model_moments;
          Alcotest.test_case "covariance cutoff (eq. 8)" `Quick
            test_covariance_drops_at_cutoff;
          Alcotest.test_case "covariance closed form (eq. 8)" `Quick
            test_covariance_formula_eq8;
          Alcotest.test_case "covariance vs Monte Carlo" `Slow
            test_covariance_matches_monte_carlo;
          Alcotest.test_case "sample epochs statistics" `Slow
            test_sample_epochs_statistics;
          Alcotest.test_case "fit from trace" `Slow
            test_fit_from_trace_recovers_marginal;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mean increment" `Quick test_workload_mean;
          Alcotest.test_case "two-sided survival (deterministic)" `Quick
            test_workload_survival_two_sided;
          Alcotest.test_case "survival monotone and bounded" `Quick
            test_workload_survival_monotone_and_bounded;
          Alcotest.test_case "max increment" `Quick test_workload_max_increment;
          Alcotest.test_case "expected overflow: paper closed form" `Quick
            test_expected_overflow_closed_form;
          Alcotest.test_case "expected overflow: Monte Carlo" `Slow
            test_expected_overflow_monte_carlo;
          Alcotest.test_case "expected overflow monotone" `Quick
            test_expected_overflow_monotone_in_occupancy;
          Alcotest.test_case "zero-buffer loss" `Quick
            test_zero_buffer_loss_formula;
          Alcotest.test_case "discretized bins are pmfs" `Quick
            test_discretize_bins_sum_to_one;
          Alcotest.test_case "floor/ceiling stochastic ordering" `Quick
            test_discretize_stochastic_ordering;
        ] );
      ( "solver",
        [
          Alcotest.test_case "zero buffer closed form" `Quick
            test_solver_zero_buffer_closed_form;
          Alcotest.test_case "underloaded queue" `Quick
            test_solver_underloaded_is_zero;
          Alcotest.test_case "bounds bracket" `Quick test_solver_bounds_bracket;
          Alcotest.test_case "matches simulation (exponential)" `Slow
            test_solver_matches_simulation_exponential;
          Alcotest.test_case "matches simulation (truncated pareto)" `Slow
            test_solver_matches_simulation_truncated_pareto;
          Alcotest.test_case "loss decreasing in buffer" `Quick
            test_solver_loss_decreasing_in_buffer;
          Alcotest.test_case "loss increasing in cutoff" `Quick
            test_solver_loss_increasing_in_cutoff;
          Alcotest.test_case "loss increasing in utilization" `Quick
            test_solver_loss_increasing_in_utilization;
          Alcotest.test_case "respects max iterations" `Quick
            test_solver_respects_max_iterations;
          Alcotest.test_case "direct matches fft" `Quick
            test_solver_direct_matches_fft;
          Alcotest.test_case "cold restart consistent" `Quick
            test_solver_cold_restart_same_answer;
          Alcotest.test_case "negligible loss reports zero" `Quick
            test_solver_negligible_loss_reports_zero;
          Alcotest.test_case "rejects bad input" `Quick
            test_solver_rejects_bad_input;
          Alcotest.test_case "golden matrix (pre-rewrite bounds)" `Quick
            test_solver_golden_matrix;
          Alcotest.test_case "workspace step allocates nothing" `Quick
            test_workspace_step_does_not_allocate;
          Alcotest.test_case "workspace tables allocation bound" `Quick
            test_workspace_tables_allocation_bound;
        ] );
      ( "state",
        [
          QCheck_alcotest.to_alcotest prop_state_slicing_bitwise;
          Alcotest.test_case "seed from neighbour" `Quick
            test_state_seed_from_neighbour;
          Alcotest.test_case "stop keeps certified bounds" `Quick
            test_state_stop_reports_certified_bounds;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "monotone in n (Prop II.1)" `Quick
            test_snapshots_monotone_in_n;
          Alcotest.test_case "pmfs are distributions" `Quick
            test_snapshots_pmfs_are_distributions;
          Alcotest.test_case "rejects unsorted" `Quick
            test_snapshots_reject_unsorted;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "pmfs are distributions" `Quick
            test_occupancy_pmfs_are_distributions;
          Alcotest.test_case "bound ordering" `Quick
            test_occupancy_bounds_order;
          Alcotest.test_case "brackets simulation" `Slow
            test_occupancy_brackets_simulation;
          Alcotest.test_case "zero buffer point mass" `Quick
            test_occupancy_zero_buffer_point_mass;
          Alcotest.test_case "virtual delay scaling" `Quick
            test_virtual_delay_scales;
        ] );
      ( "provision",
        [
          Alcotest.test_case "buffer for loss" `Slow
            test_provision_buffer_for_loss;
          Alcotest.test_case "buffer unachievable for LRD" `Slow
            test_provision_buffer_unachievable;
          Alcotest.test_case "utilization for loss" `Slow
            test_provision_utilization_for_loss;
          Alcotest.test_case "streams for loss" `Slow
            test_provision_streams_for_loss;
          Alcotest.test_case "rejects bad target" `Quick
            test_provision_rejects_bad_target;
        ] );
      ( "asymptotics",
        [
          Alcotest.test_case "kappa" `Quick test_kappa_values;
          Alcotest.test_case "fBm Weibull shape" `Quick test_fbm_tail_shape;
          Alcotest.test_case "on/off hyperbolic shape" `Quick
            test_onoff_tail_shape;
          Alcotest.test_case "decay rate closed form" `Quick
            test_exponential_decay_rate_known_case;
          Alcotest.test_case "decay rate vs simulation" `Slow
            test_exponential_decay_rate_matches_simulation;
          Alcotest.test_case "rejects unstable" `Quick
            test_exponential_decay_rate_rejects_unstable;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "for_buffer structure" `Slow
            test_fitting_for_buffer;
          Alcotest.test_case "prediction tracks full model" `Slow
            test_fitting_prediction_tracks_full_model;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "linear in buffer" `Quick
            test_horizon_estimate_linear_in_buffer;
          Alcotest.test_case "eq. 26 by hand" `Quick
            test_horizon_estimate_formula;
          Alcotest.test_case "decreasing in p" `Quick
            test_horizon_estimate_decreasing_in_p;
          Alcotest.test_case "estimate for model" `Quick
            test_horizon_estimate_for_model;
          Alcotest.test_case "detect" `Quick test_horizon_detect;
          Alcotest.test_case "detect skips zeros" `Quick
            test_horizon_detect_with_zeros;
          Alcotest.test_case "critical time scale" `Quick
            test_critical_time_scale;
          Alcotest.test_case "detect rejects unsorted" `Quick
            test_horizon_detect_rejects_unsorted;
          Alcotest.test_case "empirical flattening (solver)" `Slow
            test_horizon_empirical_vs_solver;
        ] );
      ( "superpose",
        qcheck [ prop_self_convolve_matches_brute ]
        @ [
            Alcotest.test_case "exact binomial (n = 2)" `Quick
              test_superpose_exact_binomial;
            Alcotest.test_case "heterogeneous mean restoration" `Quick
              test_superpose_heterogeneous_mean;
            Alcotest.test_case "edgeworth vs exact tail (N = 1e4)" `Slow
              test_superpose_edgeworth_tail_agreement;
            Alcotest.test_case "cost model" `Quick test_superpose_cost_model;
            Alcotest.test_case "spectrum multiply count" `Quick
              test_superpose_spectrum_multiply_count;
            Alcotest.test_case "rejects bad input" `Quick
              test_superpose_rejects_bad_input;
          ] );
      ( "properties",
        qcheck
          [
            prop_bounds_always_bracket;
            prop_bounds_bracket_pareto_epochs;
            prop_covariance_nonnegative_decreasing;
          ] );
    ]
