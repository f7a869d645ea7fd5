type low_stats = {
  arrived : float;
  lost : float;
  loss_rate : float;
  max_occupancy : float;
}

let run ~service_rate ~high_buffer ~low_buffer ~high ~low =
  if high.Lrd_trace.Trace.slot <> low.Lrd_trace.Trace.slot then
    invalid_arg "Priority.run: traces must share the slot length";
  let n = Lrd_trace.Trace.length high in
  if Lrd_trace.Trace.length low <> n then
    invalid_arg "Priority.run: traces must have equal lengths";
  let slot = high.Lrd_trace.Trace.slot in
  let high_state =
    Queue_sim.make ~service_rate ~buffer:high_buffer ()
  in
  let low_state = Queue_sim.make ~service_rate ~buffer:low_buffer () in
  let arrived = Lrd_numerics.Summation.create () in
  let lost = Lrd_numerics.Summation.create () in
  let max_occupancy = ref 0.0 in
  for i = 0 to n - 1 do
    let high_rate = high.Lrd_trace.Trace.rates.(i) in
    let low_rate = low.Lrd_trace.Trace.rates.(i) in
    let _, segments =
      Queue_sim.offer_with_output high_state ~rate:high_rate ~duration:slot
    in
    Lrd_numerics.Summation.add arrived (low_rate *. slot);
    List.iter
      (fun (departure_rate, duration) ->
        (* Virtual arrival trick: slope equals
           low_rate - (c - departure_rate). *)
        let lost_now =
          Queue_sim.offer low_state
            ~rate:(low_rate +. departure_rate)
            ~duration
        in
        Lrd_numerics.Summation.add lost lost_now;
        let q = Queue_sim.occupancy low_state in
        if q > !max_occupancy then max_occupancy := q)
      segments
  done;
  let arrived = Lrd_numerics.Summation.total arrived in
  let lost = Lrd_numerics.Summation.total lost in
  ( (Queue_sim.stats high_state).(0),
    {
      arrived;
      lost;
      loss_rate = (if arrived > 0.0 then lost /. arrived else 0.0);
      max_occupancy = !max_occupancy;
    } )
