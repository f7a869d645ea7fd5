(* ARQ vs FEC under long-range dependent loss (the paper's closing
   thought experiment, Section V).

   The paper argues that the relevant correlation time scale depends on
   the performance question, and picks error control as the example:
   ARQ likes bursty losses (one retransmission round recovers a whole
   burst), FEC likes dispersed losses (a (n, k) code corrects up to
   n - k losses per block, so clustered losses overwhelm it).
   Extending the correlation time scale should therefore widen ARQ's
   advantage — a question for which a short-memory model would mislead.

   We generate the packet-loss process from the queue itself: feed the
   finite-buffer fluid queue with video traffic whose correlation is cut
   at increasing lags, mark each slot lossy in proportion to the fluid
   lost in it, and compare:
     - FEC overhead: fraction of (n, k) = (16, 14) blocks with more than
       n - k lossy slots (unrecoverable);
     - ARQ efficiency: retransmission rounds per lossy slot, where one
       round covers a whole run of consecutive lossy slots (the burst).

   Run with: dune exec examples/arq_fec.exe *)

let utilization = 0.9
let buffer_seconds = 0.02
let fec_n = 16
let fec_k = 14

let () =
  let rng = Lrd_rng.Rng.create ~seed:5L in
  let trace = Lrd_trace.Video.generate_short rng ~n:65_536 in
  let c =
    Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
  in
  Format.printf
    "video source at %g%% utilization, %g ms buffer; FEC (%d, %d)@.@."
    (100.0 *. utilization)
    (1000.0 *. buffer_seconds)
    fec_n fec_k;
  Format.printf "%12s %12s %16s %18s %14s@." "cutoff_s" "loss rate"
    "lossy slots" "FEC unrecoverable" "ARQ rounds";
  List.iter
    (fun cutoff_seconds ->
      let shuffled =
        match cutoff_seconds with
        | None -> trace
        | Some tc ->
            let block =
              max 1
                (int_of_float
                   (Float.round (tc /. trace.Lrd_trace.Trace.slot)))
            in
            Lrd_trace.Shuffle.external_shuffle rng trace ~block
      in
      let sim =
        Lrd_fluidsim.Queue_sim.create ~service_rate:c
          ~buffers:[| buffer_seconds *. c |]
      in
      let losses, stats =
        Lrd_fluidsim.Queue_sim.losses_per_slot sim shuffled
      in
      let lossy = Array.map (fun l -> l > 0.0) losses.(0) in
      let n = Array.length lossy in
      let lossy_count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 lossy
      in
      (* FEC: fraction of unrecoverable blocks among blocks containing
         at least one loss. *)
      let blocks = n / fec_n in
      let affected = ref 0 and dead = ref 0 in
      for b = 0 to blocks - 1 do
        let in_block = ref 0 in
        for i = b * fec_n to ((b + 1) * fec_n) - 1 do
          if lossy.(i) then incr in_block
        done;
        if !in_block > 0 then begin
          incr affected;
          if !in_block > fec_n - fec_k then incr dead
        end
      done;
      let fec_failure =
        if !affected = 0 then 0.0
        else float_of_int !dead /. float_of_int !affected
      in
      (* ARQ: one retransmission round per maximal run of lossy slots. *)
      let rounds = ref 0 in
      for i = 0 to n - 1 do
        if lossy.(i) && (i = 0 || not lossy.(i - 1)) then incr rounds
      done;
      let arq_rounds_per_loss =
        if lossy_count = 0 then 0.0
        else float_of_int !rounds /. float_of_int lossy_count
      in
      Format.printf "%12s %12.3e %16d %18.3f %14.3f@."
        (match cutoff_seconds with
        | None -> "inf"
        | Some tc -> Printf.sprintf "%g" tc)
        (Lrd_fluidsim.Queue_sim.loss_rate stats.(0))
        lossy_count fec_failure arq_rounds_per_loss)
    [ Some 0.1; Some 1.0; Some 10.0; None ];
  Format.printf
    "@.reading: as the correlation time scale grows, losses cluster - the \
     fraction of loss-affected FEC blocks the code cannot repair rises, \
     while ARQ needs ever fewer rounds per lost slot (one round covers a \
     longer burst).  A model truncated at a short lag would predict the \
     small-cutoff row everywhere and overstate FEC; for this question the \
     full self-similar correlation matters, exactly as the paper argues.@."
