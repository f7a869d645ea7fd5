(* Extension: service differentiation under LRD.  The video trace rides
   as the high-priority class on a link shared with Ethernet-like
   best-effort traffic.  Three readings at increasing link load: the
   video class is isolated (tiny loss, as if it had the link to
   itself), while the best-effort class absorbs the video's burstiness
   on top of its own; the FIFO alternative (both classes in one queue)
   spreads the pain.  Statistical multiplexing with priorities is how
   the paper's "keep utilization high while keeping loss low" advice is
   deployed when classes differ in value. *)

let id = "ext-priority"

let title =
  "Extension: strict priority - isolating the LRD class on a shared link"

let run ctx fmt =
  let high = Data.mtv ctx in
  (* Best-effort companion sized to a third of the video's mean. *)
  let low =
    (* Re-grid the 10 ms Ethernet trace onto the video's 33 ms slots
       (work conserving) and scale it to a third of the video's mean. *)
    let regridded =
      Lrd_trace.Trace.resample (Data.bellcore ctx)
        ~slot:high.Lrd_trace.Trace.slot
    in
    Lrd_trace.Trace.scale_to_mean regridded
      ~mean:(Lrd_trace.Trace.mean high /. 3.0)
  in
  let n = min (Lrd_trace.Trace.length high) (Lrd_trace.Trace.length low) in
  let high = Lrd_trace.Trace.sub high ~pos:0 ~len:n in
  let low = Lrd_trace.Trace.sub low ~pos:0 ~len:n in
  let total_mean = Lrd_trace.Trace.mean high +. Lrd_trace.Trace.mean low in
  Table.heading fmt title;
  Format.fprintf fmt
    "high: video (mean %.3g); low: ethernet-marginal best effort (mean \
     %.3g); per-class buffers 0.1 s of the link rate@."
    (Lrd_trace.Trace.mean high)
    (Lrd_trace.Trace.mean low);
  Format.fprintf fmt "%12s %12s %12s %14s@." "link load" "video loss"
    "low loss" "fifo (mixed)";
  List.iter
    (fun load ->
      let c = total_mean /. load in
      let buffer = 0.1 *. c in
      let high_stats, low_stats =
        Lrd_fluidsim.Priority.run ~service_rate:c ~high_buffer:buffer
          ~low_buffer:buffer ~high ~low
      in
      (* FIFO baseline: the summed trace through one queue with the
         combined buffer. *)
      let mixed =
        Lrd_trace.Trace.create
          ~rates:
            (Array.mapi
               (fun i r -> r +. low.Lrd_trace.Trace.rates.(i))
               high.Lrd_trace.Trace.rates)
          ~slot:high.Lrd_trace.Trace.slot
      in
      let fifo =
        let sim =
          Lrd_fluidsim.Queue_sim.create ~service_rate:c
            ~buffers:[| 2.0 *. buffer |]
        in
        Lrd_fluidsim.Queue_sim.loss_rate
          (Lrd_fluidsim.Queue_sim.run_trace sim mixed).(0)
      in
      Format.fprintf fmt "%12g %12s %12s %14s@." load
        (Table.cell_value (Lrd_fluidsim.Queue_sim.loss_rate high_stats))
        (Table.cell_value low_stats.Lrd_fluidsim.Priority.loss_rate)
        (Table.cell_value fifo))
    [ 0.6; 0.75; 0.9 ];
  Format.fprintf fmt
    "(the video class sees the loss of a queue serving it alone - its \
     effective utilization is only its own share of the link - while the \
     best-effort class pays for both classes' burstiness; FIFO mixing \
     sits in between for everyone)@."
