(* Quickstart: build a cutoff-correlated fluid source, solve the finite
   buffer queue for its loss rate, and ask where the correlation horizon
   lies.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* An on/off style marginal: silent half the time, bursting at
     2 Mb/s otherwise (mean 1 Mb/s). *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in

  (* Epoch lengths: truncated Pareto matched so that, with Hurst
     parameter H = 0.8 (alpha = 3 - 2H = 1.4), the mean rate-residence
     time is 100 ms and correlation vanishes beyond 30 s. *)
  let hurst = 0.8 in
  let theta =
    Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch:0.1
      ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
      ()
  in
  let model = Lrd_core.Model.of_hurst ~marginal ~hurst ~theta ~cutoff:30.0 in

  Format.printf "source: %a@." Lrd_core.Model.pp model;
  Format.printf "rate correlation at 1 s lag: %.4f; at 30 s: %.4f@."
    (Lrd_core.Model.residual_life_ccdf model 1.0)
    (Lrd_core.Model.residual_life_ccdf model 30.0);

  (* Loss at 80% utilization across a few buffer sizes. *)
  Format.printf "@.loss at utilization 0.8:@.";
  List.iter
    (fun buffer_seconds ->
      let result =
        Lrd_core.Solver.solve_utilization model ~utilization:0.8
          ~buffer_seconds
      in
      Format.printf "  B = %4g s: %a@." buffer_seconds
        Lrd_core.Solver.pp_result result)
    [ 0.1; 0.5; 1.0; 2.0 ];

  (* The correlation horizon: correlation beyond this lag cannot affect
     the loss of the 1-second buffer (eq. 26). *)
  let c = Lrd_core.Model.service_rate_for_utilization model ~utilization:0.8 in
  let horizon = Lrd_core.Horizon.estimate_for_model model ~buffer:c in
  Format.printf
    "@.correlation horizon for the 1 s buffer: %.3g s - a model only needs \
     to match the source's correlation up to there.@."
    horizon;

  (* Cross-check the solver against an exact fluid simulation of a
     sampled path. *)
  let rng = Lrd_rng.Rng.create ~seed:1L in
  let epochs = Lrd_core.Model.sample_epochs model rng ~n:500_000 in
  let sim = Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| c |] in
  let stats =
    (Lrd_fluidsim.Queue_sim.run sim ~rates:(Array.map fst epochs)
       ~durations:(Array.map snd epochs)).(0)
  in
  let solver =
    Lrd_core.Solver.solve_utilization model ~utilization:0.8
      ~buffer_seconds:1.0
  in
  Format.printf
    "@.cross-check at B = 1 s: solver %.4g vs simulated %.4g (500k epochs)@."
    solver.Lrd_core.Solver.loss
    (Lrd_fluidsim.Queue_sim.loss_rate stats)
