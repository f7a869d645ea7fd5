(* Extension: the correlation horizon across hops.  A two-hop tandem of
   finite-buffer fluid queues is fed the MTV-like trace at different
   shuffle cutoffs, with the second hop the bottleneck (a downstream
   link carrying cross traffic: 90% of the first hop's rate — with
   equal rates the first hop's service cap would make the second
   trivially lossless).  The first hop truncates bursts at its service
   rate, so the bottleneck sees milder traffic than it would raw; the
   single pooled-buffer queue at the bottleneck rate is the baseline. *)

let id = "ext-tandem"
let title = "Extension: two-hop tandem - loss per hop vs pooled buffer"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let utilization = Data.mtv_utilization in
  let c = Lrd_trace.Trace.service_rate_for_utilization trace ~utilization in
  let c2 = 0.9 *. c in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 61L) in
  let buffer_seconds = 0.1 in
  Table.heading fmt title;
  Format.fprintf fmt
    "video trace; hop 1 at utilization %.2g, hop 2 at %.2g (bottleneck); \
     per-hop buffer %g s, pooled bottleneck baseline %g s@."
    utilization (utilization /. 0.9) buffer_seconds (2.0 *. buffer_seconds);
  Format.fprintf fmt "%11s %12s %12s %12s %12s@." "cutoff_s" "hop1" "hop2"
    "end-to-end" "pooled-1hop";
  let cutoffs = [ Some 0.33; Some 3.3; Some 33.0; None ] in
  List.iter
    (fun cutoff ->
      let input =
        match cutoff with
        | None -> trace
        | Some tc ->
            let block =
              max 1
                (int_of_float
                   (Float.round (tc /. trace.Lrd_trace.Trace.slot)))
            in
            Lrd_trace.Shuffle.external_shuffle rng trace ~block
      in
      let stages =
        [
          {
            Lrd_fluidsim.Tandem.service_rate = c;
            buffer = buffer_seconds *. c;
          };
          {
            Lrd_fluidsim.Tandem.service_rate = c2;
            buffer = buffer_seconds *. c2;
          };
        ]
      in
      let stats = Lrd_fluidsim.Tandem.run_trace ~stages input in
      let hop_loss s = Lrd_fluidsim.Queue_sim.loss_rate s in
      let pooled =
        let sim =
          Lrd_fluidsim.Queue_sim.create ~service_rate:c2
            ~buffers:[| 2.0 *. buffer_seconds *. c2 |]
        in
        Lrd_fluidsim.Queue_sim.loss_rate
          (Lrd_fluidsim.Queue_sim.run_trace sim input).(0)
      in
      match stats with
      | [ hop1; hop2 ] ->
          Format.fprintf fmt "%11s %12s %12s %12s %12s@."
            (match cutoff with
            | None -> "inf"
            | Some tc -> Printf.sprintf "%g" tc)
            (Table.cell_value (hop_loss hop1))
            (Table.cell_value (hop_loss hop2))
            (Table.cell_value (Lrd_fluidsim.Tandem.end_to_end_loss stats))
            (Table.cell_value pooled)
      | _ -> assert false)
    cutoffs;
  Format.fprintf fmt
    "(hop 1's service cap truncates the bursts the bottleneck would \
     otherwise absorb, yet the bottleneck still dominates end-to-end \
     loss; the pooled single buffer at the bottleneck beats the split \
     tandem - buffer sharing gains; and the loss flattens in the cutoff \
     at every hop, so the correlation horizon carries over to networks)@."
