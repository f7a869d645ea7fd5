type stats = {
  offered_packets : int;
  offered_work : float;
  dropped_packets : int;
  dropped_work : float;
  mean_delay : float;
  max_delay : float;
  max_backlog : float;
  final_backlog : float;
}

let loss_rate s =
  if s.offered_work > 0.0 then s.dropped_work /. s.offered_work else 0.0

let packet_loss_rate s =
  if s.offered_packets > 0 then
    float_of_int s.dropped_packets /. float_of_int s.offered_packets
  else 0.0

module Summation = Lrd_numerics.Summation

(* One lane per buffer.  The float fields of this mixed record are
   boxed, but a lane is written back once per slot, never per packet. *)
type lane = {
  limit : float;  (* Buffer plus the 1e-12 fit tolerance. *)
  mutable backlog : float;
  mutable max_delay : float;
  mutable max_backlog : float;
  mutable accepted : int;
  mutable dropped_packets : int;
  dropped_work : Summation.accumulator;
  delay_sum : Summation.accumulator;
}

(* The arrival clock and the offered totals are shared: every lane sees
   the same packets. *)
type t = {
  service_rate : float;
  lanes : lane array;
  mutable clock : float;
  mutable offered_packets : int;
  offered_work : Summation.accumulator;
}

let create ~service_rate ~buffers =
  if not (service_rate > 0.0) then
    invalid_arg "Packet_queue.create: service rate must be positive";
  if not (Array.for_all (fun b -> b >= 0.0) buffers) then
    invalid_arg "Packet_queue.create: buffer must be nonnegative";
  let lane buffer =
    {
      limit = buffer +. 1e-12;
      backlog = 0.0;
      max_delay = 0.0;
      max_backlog = 0.0;
      accepted = 0;
      dropped_packets = 0;
      dropped_work = Summation.create ();
      delay_sum = Summation.create ();
    }
  in
  {
    service_rate;
    lanes = Array.map lane buffers;
    clock = 0.0;
    offered_packets = 0;
    offered_work = Summation.create ();
  }

let add t times n ~size =
  if n < 0 || n > Array.length times then
    invalid_arg "Packet_queue.add: count out of range";
  (* The order check and the shared clock, once for all lanes. *)
  let clock0 = t.clock in
  let clock = ref clock0 in
  for i = 0 to n - 1 do
    let time = Array.unsafe_get times i in
    if time < !clock -. 1e-9 then
      invalid_arg "Packet_queue.add: arrivals must be time ordered";
    if time > !clock then clock := time
  done;
  t.clock <- !clock;
  t.offered_packets <- t.offered_packets + n;
  Summation.add t.offered_work (float_of_int n *. size);
  let c = t.service_rate in
  for b = 0 to Array.length t.lanes - 1 do
    let lane = t.lanes.(b) in
    let backlog = ref lane.backlog and clock = ref clock0 in
    let max_delay = ref lane.max_delay in
    let max_backlog = ref lane.max_backlog in
    let delay_sum = ref 0.0 and accepted = ref 0 in
    for i = 0 to n - 1 do
      let time = Array.unsafe_get times i in
      (* Drain since the previous event. *)
      let drained = !backlog -. (c *. (time -. !clock)) in
      backlog := if drained > 0.0 then drained else 0.0;
      if time > !clock then clock := time;
      if !backlog +. size <= lane.limit then begin
        let delay = !backlog /. c in
        delay_sum := !delay_sum +. delay;
        incr accepted;
        if delay > !max_delay then max_delay := delay;
        backlog := !backlog +. size;
        if !backlog > !max_backlog then max_backlog := !backlog
      end
    done;
    let dropped = n - !accepted in
    lane.backlog <- !backlog;
    lane.max_delay <- !max_delay;
    lane.max_backlog <- !max_backlog;
    lane.accepted <- lane.accepted + !accepted;
    lane.dropped_packets <- lane.dropped_packets + dropped;
    (* Per-slot sums enter the compensated accumulators once per slot. *)
    Summation.add lane.delay_sum !delay_sum;
    Summation.add lane.dropped_work (float_of_int dropped *. size)
  done

let stats t =
  Array.map
    (fun lane ->
      {
        offered_packets = t.offered_packets;
        offered_work = Summation.total t.offered_work;
        dropped_packets = lane.dropped_packets;
        dropped_work = Summation.total lane.dropped_work;
        mean_delay =
          (if lane.accepted > 0 then
             Summation.total lane.delay_sum /. float_of_int lane.accepted
           else 0.0);
        max_delay = lane.max_delay;
        max_backlog = lane.max_backlog;
        final_backlog = lane.backlog;
      })
    t.lanes
