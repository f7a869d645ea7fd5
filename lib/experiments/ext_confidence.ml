(* Extension: how trustworthy are the trace-driven loss numbers?  Under
   LRD the variance of a time average decays like n^(2H-2), far slower
   than 1/n, so the shuffled-simulation cells of Figs. 7/8 carry much
   wider error bars than their sample sizes suggest.  For a few
   (buffer, cutoff) cells the per-slot loss and arrival processes are
   fed through the batch-means method; the headline comparison is the
   interval width for the unshuffled (LRD) trace versus a short-block
   shuffle of the same length. *)

let id = "ext-confidence"

let title =
  "Extension: batch-means error bars on trace-driven loss (LRD widens them)"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let utilization = Data.mtv_utilization in
  let c = Lrd_trace.Trace.service_rate_for_utilization trace ~utilization in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 101L) in
  Table.heading fmt title;
  Format.fprintf fmt
    "video trace at utilization %.2g; 95%% batch-means intervals, 16 \
     batches@."
    utilization;
  Format.fprintf fmt "%10s %12s %12s %14s %12s@." "buffer_s" "input"
    "loss" "95% interval" "rel width";
  let slot_arrivals input =
    Array.map (fun r -> r *. input.Lrd_trace.Trace.slot)
      input.Lrd_trace.Trace.rates
  in
  let cell ~buffer_seconds ~label input =
    let sim =
      Lrd_fluidsim.Queue_sim.create ~service_rate:c
        ~buffers:[| buffer_seconds *. c |]
    in
    let losses = (fst (Lrd_fluidsim.Queue_sim.losses_per_slot sim input)).(0) in
    let interval =
      Lrd_stats.Batch_means.loss_rate_interval ~batches:16 ~losses
        ~arrivals:(slot_arrivals input) ()
    in
    let est = interval.Lrd_stats.Batch_means.estimate in
    let hw = interval.Lrd_stats.Batch_means.half_width in
    Format.fprintf fmt "%10g %12s %12s %14s %12s@." buffer_seconds label
      (Table.cell_value est)
      (Printf.sprintf "+/- %.1e" hw)
      (if est > 0.0 then Printf.sprintf "%.0f%%" (100.0 *. hw /. est)
       else "-")
  in
  List.iter
    (fun buffer_seconds ->
      cell ~buffer_seconds ~label:"lrd" trace;
      let shuffled =
        Lrd_trace.Shuffle.external_shuffle rng trace ~block:8
      in
      cell ~buffer_seconds ~label:"shuffled" shuffled)
    (if Data.quick ctx then [ 0.01 ] else [ 0.01; 0.05; 0.2 ]);
  Format.fprintf fmt
    "(same trace length, same estimator: the LRD input's interval is \
     several times wider than the short-memory shuffle's - the \
     batch-means point the paper's literature makes about simulating \
     self-similar traffic, and the reason EXPERIMENTS.md reports only \
     the shapes of Figs. 7/8 cells below ~1e-4)@."
