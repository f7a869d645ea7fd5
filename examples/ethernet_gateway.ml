(* Ethernet gateway engineering: fit the paper's fluid model to a
   measured LAN trace and validate its loss predictions against
   trace-driven simulation — the full modeling workflow of Section III.

   1. "Measure" an Ethernet segment (synthetic Bellcore-like aggregate of
      heavy-tailed on/off stations).
   2. Extract the model ingredients exactly as the paper does: 50-bin
      histogram marginal, mean rate-residence epoch (-> theta via
      eq. 25), wavelet Hurst estimate (-> alpha).
   3. Predict the loss at the gateway for several buffer sizes.
   4. Validate against the exact fluid simulator fed with the trace
      itself, and with a shuffled version whose correlation is cut at
      the estimated correlation horizon.

   Run with: dune exec examples/ethernet_gateway.exe *)

let utilization = 0.4

let () =
  let rng = Lrd_rng.Rng.create ~seed:77L in
  let trace = Lrd_trace.Ethernet.generate_short rng ~n:120_000 in
  Format.printf
    "measured segment: %d samples of %.3g s, mean %.3g Mb/s, peak %.3g@."
    (Lrd_trace.Trace.length trace)
    trace.Lrd_trace.Trace.slot
    (Lrd_trace.Trace.mean trace)
    (Lrd_trace.Trace.peak trace);
  let wavelet =
    (Lrd_stats.Hurst.abry_veitch trace.Lrd_trace.Trace.rates)
      .Lrd_stats.Hurst.hurst
  in
  let epoch = Lrd_trace.Epochs.mean_epoch_duration ~bins:50 trace in
  Format.printf "wavelet H estimate: %.3f; mean epoch: %.4g s@." wavelet epoch;

  let model = Lrd_core.Model.fit_from_trace trace in
  Format.printf "fitted model: %a@.@." Lrd_core.Model.pp model;

  let c =
    Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
  in
  Format.printf
    "gateway at %g%% utilization (service rate %.3g Mb/s)@.@."
    (100.0 *. utilization) c;

  Format.printf "%10s %14s %14s %16s@." "buffer_s" "model" "trace sim"
    "sim@horizon";
  List.iter
    (fun buffer_seconds ->
      let predicted =
        (Lrd_core.Solver.solve_utilization model ~utilization ~buffer_seconds)
          .Lrd_core.Solver.loss
      in
      let simulate t =
        let sim =
          Lrd_fluidsim.Queue_sim.create ~service_rate:c
            ~buffers:[| buffer_seconds *. c |]
        in
        Lrd_fluidsim.Queue_sim.loss_rate
          (Lrd_fluidsim.Queue_sim.run_trace sim t).(0)
      in
      let measured = simulate trace in
      (* Cut correlation at the eq. 26 horizon: if the horizon is real,
         this must not change the simulated loss much. *)
      let hist = Lrd_trace.Histogram.of_trace ~bins:50 trace in
      let runs =
        Array.map
          (fun r -> float_of_int r *. trace.Lrd_trace.Trace.slot)
          (Lrd_trace.Epochs.run_lengths hist trace)
      in
      let horizon =
        Lrd_core.Horizon.estimate
          ~buffer:(buffer_seconds *. c)
          ~mean_epoch:epoch
          ~epoch_std:(Lrd_stats.Descriptive.std runs)
          ~rate_std:(Lrd_trace.Trace.std trace)
          ()
      in
      let block =
        max 1
          (int_of_float (Float.round (horizon /. trace.Lrd_trace.Trace.slot)))
      in
      let shuffled =
        Lrd_trace.Shuffle.external_shuffle rng trace ~block
      in
      let at_horizon = simulate shuffled in
      Format.printf "%10g %14.3e %14.3e %16.3e  (CH %.3g s)@." buffer_seconds
        predicted measured at_horizon horizon)
    [ 0.02; 0.05; 0.1; 0.25 ];
  Format.printf
    "@.reading: the model tracks the simulation at small buffers and \
     overestimates at larger ones - the paper reports the same for the \
     Bellcore trace (its single-rate epochs are heavier than the \
     aggregate's real residence times).  Shuffling at the correlation \
     horizon leaves the measured loss roughly unchanged, confirming that \
     correlation beyond the horizon is irrelevant to this buffer.@."
