type stage = { service_rate : float; buffer : float }

let run_epochs ~stages epochs =
  if stages = [] then invalid_arg "Tandem.run_epochs: no stages";
  let states =
    List.map
      (fun s -> Queue_sim.make ~service_rate:s.service_rate ~buffer:s.buffer ())
      stages
  in
  (* Lazily thread the departure process of each stage into the next;
     consuming the last stage's sequence drives the whole pipeline in
     one pass. *)
  let rec pipeline states epochs =
    match states with
    | [] -> Seq.iter ignore epochs
    | state :: rest ->
        let departures =
          Seq.concat_map
            (fun (rate, duration) ->
              let _, segments =
                Queue_sim.offer_with_output state ~rate ~duration
              in
              List.to_seq segments)
            epochs
        in
        pipeline rest departures
  in
  pipeline states epochs;
  List.map (fun s -> (Queue_sim.stats s).(0)) states

let run_trace ~stages trace =
  let slot = trace.Lrd_trace.Trace.slot in
  run_epochs ~stages
    (Array.to_seq trace.Lrd_trace.Trace.rates |> Seq.map (fun r -> (r, slot)))

let end_to_end_loss stats =
  match stats with
  | [] -> 0.0
  | first :: _ ->
      let total_lost =
        List.fold_left
          (fun acc s -> acc +. s.Queue_sim.lost)
          0.0 stats
      in
      if first.Queue_sim.arrived > 0.0 then
        total_lost /. first.Queue_sim.arrived
      else 0.0
