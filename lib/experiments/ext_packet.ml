(* Extension: how good is the fluid abstraction?  The paper's queue is
   fluid; real switches queue packets.  The video trace is packetized
   (doubly stochastic Poisson at each slot's rate) at several packet
   sizes and driven through a tail-drop FIFO packet queue; the fluid
   simulator runs the same trace.  As the buffer-to-packet ratio grows
   the packet loss converges to the fluid loss; at small buffers the
   packet granularity and Poisson jitter add loss the fluid model
   cannot see.

   Each packet size is poissonized once, from its own stream
   [split_indexed base ~index:j], and that one arrival stream drives
   every buffer; the sizes run as independent tasks on the context's
   pool, so the table is identical at any parallelism. *)

let id = "ext-packet"
let title = "Extension: fluid abstraction vs packet-level simulation"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let utilization = Data.mtv_utilization in
  let c = Lrd_trace.Trace.service_rate_for_utilization trace ~utilization in
  let base = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 81L) in
  Table.heading fmt title;
  Format.fprintf fmt
    "video trace at utilization %.2g; rates in Mb/s, so packet sizes are \
     in Mb (0.004 Mb ~ 500-byte packets, 0.012 Mb ~ 1500 bytes)@."
    utilization;
  let buffers =
    if Data.quick ctx then [| 0.01; 0.1 |] else [| 0.005; 0.02; 0.1; 0.5 |]
  in
  let packet_sizes = [| 0.012; 0.004; 0.001 |] in
  let buffer_bits = Array.map (fun b -> b *. c) buffers in
  (* losses.(j).(b): packet size j, buffer b. *)
  let losses =
    Sweep.map ?pool:(Data.pool ctx)
      (fun j ->
        let packet_size = packet_sizes.(j) in
        let queue =
          Lrd_packet.Packet_queue.create ~service_rate:c ~buffers:buffer_bits
        in
        Lrd_packet.Arrivals.poissonize
          (Lrd_rng.Rng.split_indexed base ~index:j)
          trace ~packet_size
          (fun times n ->
            Lrd_packet.Packet_queue.add queue times n ~size:packet_size);
        Array.map Lrd_packet.Packet_queue.loss_rate
          (Lrd_packet.Packet_queue.stats queue))
      (Array.init (Array.length packet_sizes) Fun.id)
  in
  Format.fprintf fmt "%10s %12s" "buffer_s" "fluid";
  Array.iter
    (fun ps -> Format.fprintf fmt " %12s" (Printf.sprintf "pkt %g" ps))
    packet_sizes;
  Format.fprintf fmt "  (loss rate per packet size)@.";
  let fluid =
    Lrd_fluidsim.Queue_sim.run_trace
      (Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:buffer_bits)
      trace
  in
  Array.iteri
    (fun b buffer_seconds ->
      Format.fprintf fmt "%10g %12s" buffer_seconds
        (Table.cell_value (Lrd_fluidsim.Queue_sim.loss_rate fluid.(b)));
      Array.iter
        (fun row -> Format.fprintf fmt " %12s" (Table.cell_value row.(b)))
        losses;
      Format.fprintf fmt "@.")
    buffers;
  Format.fprintf fmt
    "(packet loss converges to the fluid loss from above as packets \
     shrink relative to the buffer; the fluid model underestimates loss \
     when the buffer holds only a few packets - the regime where the \
     paper's model should not be applied)@."
