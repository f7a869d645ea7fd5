(* Service classes on a shared link: FIFO vs strict priority vs
   weighted fair (GPS).

   A video stream (LRD, delay/loss sensitive) shares a link with
   Ethernet-like best-effort traffic.  The paper's statistical
   multiplexing analysis says sharing is efficient; this example shows
   how the *discipline* decides who pays for the LRD burstiness:

   - FIFO: one queue, everyone suffers the mixture's bursts;
   - strict priority: video is isolated completely, best effort absorbs
     everything;
   - GPS: the weight dials the split continuously between those poles.

   Run with: dune exec examples/service_classes.exe *)

let () =
  let rng = Lrd_rng.Rng.create ~seed:33L in
  let video = Lrd_trace.Video.generate_short rng ~n:32_768 in
  let background =
    let eth = Lrd_trace.Ethernet.generate_short rng ~n:110_000 in
    let regridded =
      Lrd_trace.Trace.resample eth ~slot:video.Lrd_trace.Trace.slot
    in
    Lrd_trace.Trace.scale_to_mean regridded
      ~mean:(Lrd_trace.Trace.mean video /. 2.0)
  in
  let n =
    min (Lrd_trace.Trace.length video) (Lrd_trace.Trace.length background)
  in
  let video = Lrd_trace.Trace.sub video ~pos:0 ~len:n in
  let background = Lrd_trace.Trace.sub background ~pos:0 ~len:n in
  let load = 0.85 in
  let total = Lrd_trace.Trace.mean video +. Lrd_trace.Trace.mean background in
  let c = total /. load in
  let buffer = 0.1 *. c in
  Format.printf
    "link at %.0f%% load (c = %.3g); video mean %.3g, background mean \
     %.3g; per-class buffers %.3g@.@."
    (100.0 *. load) c
    (Lrd_trace.Trace.mean video)
    (Lrd_trace.Trace.mean background)
    buffer;

  (* FIFO baseline. *)
  let mixed =
    Lrd_trace.Trace.create
      ~rates:
        (Array.mapi
           (fun i r -> r +. background.Lrd_trace.Trace.rates.(i))
           video.Lrd_trace.Trace.rates)
      ~slot:video.Lrd_trace.Trace.slot
  in
  let fifo =
    let sim =
      Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| 2.0 *. buffer |]
    in
    Lrd_fluidsim.Queue_sim.loss_rate
      (Lrd_fluidsim.Queue_sim.run_trace sim mixed).(0)
  in
  Format.printf "%-22s %12s %12s@." "discipline" "video loss" "bg loss";
  Format.printf "%-22s %12s %12s@." "fifo (shared queue)"
    (Printf.sprintf "%.3e" fifo)
    (Printf.sprintf "%.3e" fifo);

  (* Strict priority. *)
  let high_stats, low_stats =
    Lrd_fluidsim.Priority.run ~service_rate:c ~high_buffer:buffer
      ~low_buffer:buffer ~high:video ~low:background
  in
  Format.printf "%-22s %12s %12s@." "strict priority"
    (Printf.sprintf "%.3e" (Lrd_fluidsim.Queue_sim.loss_rate high_stats))
    (Printf.sprintf "%.3e" low_stats.Lrd_fluidsim.Priority.loss_rate);

  (* GPS at a few weights. *)
  List.iter
    (fun weight ->
      let s_video, s_bg =
        Lrd_fluidsim.Gps.run ~service_rate:c ~weight
          ~buffers:(buffer, buffer) ~first:video ~second:background
      in
      Format.printf "%-22s %12s %12s@."
        (Printf.sprintf "gps (weight %.2f)" weight)
        (Printf.sprintf "%.3e" s_video.Lrd_fluidsim.Gps.loss_rate)
        (Printf.sprintf "%.3e" s_bg.Lrd_fluidsim.Gps.loss_rate))
    [ 0.5; 0.7; 0.9 ];
  Format.printf
    "@.takeaway: the discipline chooses who absorbs the LRD bursts - \
     priority isolates the video entirely, GPS trades the classes off \
     smoothly, FIFO averages the pain.  The total carried work is the \
     same in every row (work conservation); only its allocation moves.@."
