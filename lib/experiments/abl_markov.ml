(* Ablation: Markovian baselines against the LRD trace.  A DAR(1) chain
   matched to the trace's marginal and lag-1 correlation captures only
   one time constant; a multi-time-scale on/off chain (mixture of
   geometrics) matched to mean, variance and the power-law correlation
   up to the correlation horizon does much better at realistic buffers —
   the paper's Section IV point that Markov models work once they cover
   correlation up to the CH. *)

let id = "abl-markov"

let title =
  "Ablation: Markovian baselines vs LRD trace (MTV, utilization 0.8)"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let utilization = Data.mtv_utilization in
  let slots = Lrd_trace.Trace.length trace in
  let slot = trace.Lrd_trace.Trace.slot in
  let marginal = Data.mtv_marginal ctx in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 123L) in
  let acf = Lrd_stats.Autocorr.autocorrelation trace.Lrd_trace.Trace.rates ~max_lag:1 in
  let dar = Lrd_baselines.Dar.of_lag1 ~marginal ~lag1:(Float.max 0.0 acf.(1)) in
  let dar_trace = Lrd_baselines.Dar.generate dar rng ~slots ~slot in
  (* Multi-scale chain matched to mean/variance and the H power law over
     a horizon of ~30 s of lags. *)
  let horizon_slots = max 2 (int_of_float (30.0 /. slot)) in
  let multiscale =
    Lrd_baselines.Multiscale.fit_power_law ~mean:(Lrd_trace.Trace.mean trace)
      ~variance:(Lrd_trace.Trace.variance trace) ~hurst:Data.mtv_hurst
      ~horizon:horizon_slots ()
  in
  let ms_trace = Lrd_baselines.Multiscale.generate multiscale rng ~slots ~slot in
  (* Order-1 empirical bin chain: full marginal plus one-slot residence
     behaviour. *)
  let bin_chain = Lrd_baselines.Markov_chain.fit_from_trace ~bins:50 trace in
  let bin_trace = Lrd_baselines.Markov_chain.generate bin_chain rng ~slots ~slot in
  let c = Lrd_trace.Trace.service_rate_for_utilization trace ~utilization in
  let buffers = Sweep.buffers ~quick:(Data.quick ctx) () in
  (* The traces above are generated sequentially from the shared rng;
     only the (deterministic) queue passes, one per trace with a lane per
     buffer, are spread over the pool. *)
  let losses =
    Sweep.map ?pool:(Data.pool ctx)
      (fun t ->
        Array.map Lrd_fluidsim.Queue_sim.loss_rate
          (Lrd_fluidsim.Queue_sim.run_trace
             (Lrd_fluidsim.Queue_sim.create ~service_rate:c
                ~buffers:(Array.map (fun b -> b *. c) buffers))
             t))
      [| trace; dar_trace; ms_trace; bin_trace |]
  in
  Table.print_multi_series fmt ~title ~xlabel:"buffer_s" ~ylabel:"loss rate"
    ~xs:buffers
    [
      ("lrd-trace", losses.(0));
      ("dar1", losses.(1));
      ("multiscale", losses.(2));
      ("bin-chain", losses.(3));
    ];
  Format.fprintf fmt
    "(DAR(1) lag-1 rho = %.3f; multiscale: %d on/off layers over %d-slot \
     horizon.  DAR(1) matches the full marginal but only one time \
     constant, so its loss collapses once the buffer exceeds that scale; \
     the multi-time-scale chain matches the power-law correlation but \
     only the first two moments of the marginal - its near-binomial \
     rate distribution is far lighter-tailed than the video trace's, \
     and it underestimates loss everywhere.  Both failures are the \
     paper's two findings in one table: you need the correlation up to \
     the horizon AND the marginal)@."
    (Lrd_baselines.Dar.rho dar)
    (Array.length (Lrd_baselines.Multiscale.layers multiscale))
    horizon_slots
