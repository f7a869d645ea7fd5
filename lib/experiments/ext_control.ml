(* Extension: the paper's third consequence made concrete - "it would be
   useful to examine control mechanisms for LRD sources that modify the
   scaling of the marginal", e.g. "a feedback-based rate control
   mechanism" (Section III, citing the authors' RCBR service).

   The video trace is carried three ways at the same link utilization:
   raw, through an open-loop token-bucket shaper, and as an RCBR
   reservation process (feedback renegotiation at 1 s).  For each
   carried process: its marginal spread, the network-queue loss at a
   100 ms buffer, and the control costs (shaper delay / renegotiation
   rate). *)

let id = "ext-control"

let title =
  "Extension: reshaping the marginal by traffic control (token bucket vs \
   RCBR feedback)"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let utilization = Data.mtv_utilization in
  let buffer_seconds = 0.1 in
  Table.heading fmt title;
  let mean = Lrd_trace.Trace.mean trace in
  (* Token bucket at 1.05x the mean with a 0.25 s burst allowance. *)
  let bucket_rate = 1.05 *. mean in
  let shaped =
    Lrd_control.Token_bucket.shape ~rate:bucket_rate
      ~burst:(0.25 *. bucket_rate) trace
  in
  (* RCBR feedback reservation. *)
  let rcbr = Lrd_control.Rcbr.control trace in
  let loss t =
    let c = Lrd_trace.Trace.mean t /. utilization in
    let sim =
      Lrd_fluidsim.Queue_sim.create ~service_rate:c
        ~buffers:[| buffer_seconds *. c |]
    in
    Lrd_fluidsim.Queue_sim.loss_rate
      (Lrd_fluidsim.Queue_sim.run_trace sim t).(0)
  in
  Format.fprintf fmt
    "video trace; shaped processes served at %.0f%% utilization with a \
     %g ms network buffer@."
    (100.0 *. utilization)
    (1000.0 *. buffer_seconds);
  Format.fprintf fmt "%14s %10s %10s %12s %30s@." "mechanism" "mean" "std"
    "net loss" "control cost";
  Format.fprintf fmt "%14s %10.3g %10.3g %12s %30s@." "none (raw)"
    (Lrd_trace.Trace.mean trace)
    (Lrd_trace.Trace.std trace)
    (Table.cell_value (loss trace))
    "-";
  Format.fprintf fmt "%14s %10.3g %10.3g %12s %30s@." "token bucket"
    (Lrd_trace.Trace.mean shaped.Lrd_control.Token_bucket.shaped)
    (Lrd_trace.Trace.std shaped.Lrd_control.Token_bucket.shaped)
    (Table.cell_value (loss shaped.Lrd_control.Token_bucket.shaped))
    (Printf.sprintf "max shaper delay %.3g s"
       (shaped.Lrd_control.Token_bucket.max_shaper_backlog /. bucket_rate));
  (* RCBR reserves capacity for a piecewise-constant rate the network
     honors, so the network drops nothing; the costs are bandwidth
     efficiency (mean rate / mean reservation), signalling, and the
     source-side smoothing delay. *)
  Format.fprintf fmt
    "%14s %10.3g %10.3g %12s %30s@." "rcbr"
    rcbr.Lrd_control.Rcbr.mean_reservation
    rcbr.Lrd_control.Rcbr.reservation_std
    "0 (CBR)"
    (Printf.sprintf "%.0f%% efficiency, %.2f renegs/s"
       (100.0 *. Lrd_trace.Trace.mean trace
      /. rcbr.Lrd_control.Rcbr.mean_reservation)
       rcbr.Lrd_control.Rcbr.renegotiation_rate);
  Format.fprintf fmt
    "(the token bucket clips the marginal's upper tail - std down, and \
     the network loss drops by well over an order of magnitude at the \
     same utilization, paid for in shaper delay; RCBR moves the problem \
     out of the queue altogether: the network carries an honored \
     piecewise-CBR reservation - zero network loss - at the cost of \
     reserving more than the mean and renegotiating.  Both are the \
     marginal-scaling lever of Figs. 10/12 operated by a mechanism \
     rather than by assumption)@."
