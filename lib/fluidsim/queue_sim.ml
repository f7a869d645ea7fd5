module Obs = Lrd_obs.Obs

type stats = {
  arrived : float;
  lost : float;
  served : float;
  final_occupancy : float;
  max_occupancy : float;
  busy_time : float;
  duration : float;
}

let loss_rate s = if s.arrived > 0.0 then s.lost /. s.arrived else 0.0
let utilization s ~service_rate = s.served /. (service_rate *. s.duration)

(* One lane per buffer.  Every field is a float, so the record is stored
   flat and a lane reads and writes its fields unboxed.  [busy] and
   [lost] are Neumaier sums; the [_c] fields hold their compensations. *)
type lane = {
  buffer : float;
  initial : float;
  mutable q : float;
  mutable max_q : float;
  mutable busy : float;
  mutable busy_c : float;
  mutable lost : float;
  mutable lost_c : float;
}

(* Offered work and elapsed time are the same for every lane. *)
type shared = {
  mutable arrived : float;
  mutable arrived_c : float;
  mutable time : float;
  mutable time_c : float;
}

type t = {
  service_rate : float;
  lanes : lane array;
  shared : shared;
  (* The one-epoch arrays through which [offer] runs the kernel. *)
  epoch_rate : float array;
  epoch_duration : float array;
  epoch_lost : float array array;
}

let build name ~service_rate ~buffers ~initial =
  if not (service_rate > 0.0) then
    invalid_arg (name ^ ": service rate must be positive");
  if not (Array.for_all (fun b -> b >= 0.0) buffers) then
    invalid_arg (name ^ ": buffer must be nonnegative");
  if not (Array.for_all (fun b -> initial >= 0.0 && initial <= b) buffers)
  then invalid_arg (name ^ ": initial occupancy outside [0, buffer]");
  let lane buffer =
    {
      buffer;
      initial;
      q = initial;
      max_q = initial;
      busy = 0.0;
      busy_c = 0.0;
      lost = 0.0;
      lost_c = 0.0;
    }
  in
  {
    service_rate;
    lanes = Array.map lane buffers;
    shared = { arrived = 0.0; arrived_c = 0.0; time = 0.0; time_c = 0.0 };
    epoch_rate = [| 0.0 |];
    epoch_duration = [| 0.0 |];
    epoch_lost = [| [| 0.0 |] |];
  }

let create ~service_rate ~buffers =
  build "Queue_sim.create" ~service_rate ~buffers ~initial:0.0

let make ~service_rate ~buffer ?(initial = 0.0) () =
  build "Queue_sim.make" ~service_rate ~buffers:[| buffer |] ~initial

let single t name =
  if Array.length t.lanes <> 1 then
    invalid_arg (name ^ ": needs a one-lane state");
  t.lanes.(0)

let occupancy t = (single t "Queue_sim.occupancy").q

(* Neumaier's compensation update for [sum + x = total]: the same
   arithmetic as [Summation.add].  It must be inlined: without flambda a
   call that returns a float boxes it, even within this module, and the
   allocation test would catch one box per lane-epoch. *)
let[@inline] compensate c sum total x =
  if Float.abs sum >= Float.abs x then c +. (sum -. total +. x)
  else c +. (x -. total +. sum)

(* What a pass writes per epoch into a lane's output array. *)
type record = Nothing | Losses | Occupancy

(* The kernel: every lane through the epochs, in closed form per epoch.
   Epoch [i] lasts [durations.(i * stride)] (stride 1 for an array of
   durations, 0 for a trace's one slot length).  Slope = r - c;
   occupancy is clamped to [0, B]; once at B with positive slope, all
   excess inflow is lost.  The lanes are independent, so running them
   side by side within each epoch lets the processor overlap their
   dependency chains.  Callers have validated the epochs and sized
   [outs]. *)
let advance t ~rates ~durations ~stride record outs =
  let c = t.service_rate and lanes = t.lanes and sh = t.shared in
  let arrived = ref sh.arrived and arrived_c = ref sh.arrived_c in
  let time = ref sh.time and time_c = ref sh.time_c in
  for i = 0 to Array.length rates - 1 do
    let rate = Array.unsafe_get rates i in
    let duration = Array.unsafe_get durations (i * stride) in
    (* Offered work and elapsed time, once for every lane. *)
    let work = rate *. duration in
    let total = !arrived +. work in
    arrived_c := compensate !arrived_c !arrived total work;
    arrived := total;
    let total = !time +. duration in
    time_c := compensate !time_c !time total duration;
    time := total;
    let slope = rate -. c in
    for k = 0 to Array.length lanes - 1 do
      let lane = Array.unsafe_get lanes k in
      let q = lane.q in
      let next = ref q and busy_now = ref duration and lost_now = ref 0.0 in
      if slope > 0.0 then begin
        let head = (lane.buffer -. q) /. slope in
        if head >= duration then
          (* The buffer never fills during this epoch. *)
          next := q +. (slope *. duration)
        else begin
          (* Fills after [head], then overflows for the rest. *)
          next := lane.buffer;
          lost_now := slope *. (duration -. head)
        end
      end
      else begin
        (* Draining (or constant).  Fully busy until the buffer empties;
           afterwards the arrival stream alone keeps the server busy a
           fraction [rate / c] of the residual time. *)
        let drain_time = if slope < 0.0 then q /. -.slope else infinity in
        let full = if drain_time < duration then drain_time else duration in
        busy_now := full +. ((duration -. full) *. rate /. c);
        let drained = q +. (slope *. duration) in
        next := if drained > 0.0 then drained else 0.0
      end;
      lane.q <- !next;
      if !next > lane.max_q then lane.max_q <- !next;
      let total = lane.busy +. !busy_now in
      lane.busy_c <- compensate lane.busy_c lane.busy total !busy_now;
      lane.busy <- total;
      let total = lane.lost +. !lost_now in
      lane.lost_c <- compensate lane.lost_c lane.lost total !lost_now;
      lane.lost <- total;
      match record with
      | Nothing -> ()
      | Losses -> Array.unsafe_set (Array.unsafe_get outs k) i !lost_now
      | Occupancy -> Array.unsafe_set (Array.unsafe_get outs k) i !next
    done
  done;
  sh.arrived <- !arrived;
  sh.arrived_c <- !arrived_c;
  sh.time <- !time;
  sh.time_c <- !time_c

let[@inline] check_epoch name ~rate ~duration =
  if not (rate >= 0.0 && rate < infinity) then
    invalid_arg (name ^ ": rates must be finite and nonnegative");
  if not (duration >= 0.0 && duration < infinity) then
    invalid_arg (name ^ ": durations must be finite and nonnegative")

let offer t ~rate ~duration =
  ignore (single t "Queue_sim.offer");
  check_epoch "Queue_sim.offer" ~rate ~duration;
  t.epoch_rate.(0) <- rate;
  t.epoch_duration.(0) <- duration;
  advance t ~rates:t.epoch_rate ~durations:t.epoch_duration ~stride:1 Losses
    t.epoch_lost;
  t.epoch_lost.(0).(0)

let stats t =
  let arrived = t.shared.arrived +. t.shared.arrived_c in
  let duration = t.shared.time +. t.shared.time_c in
  Array.map
    (fun lane ->
      let lost = lane.lost +. lane.lost_c in
      {
        arrived;
        lost;
        served = arrived -. lost -. (lane.q -. lane.initial);
        final_occupancy = lane.q;
        max_occupancy = lane.max_q;
        busy_time = lane.busy +. lane.busy_c;
        duration;
      })
    t.lanes

(* Departure segments of one epoch, computed from the pre-offer
   occupancy: the server emits at [c] while the buffer is nonempty (or
   the arrival alone saturates it), and at the arrival rate once the
   buffer has drained. *)
let output_segments t ~rate ~duration =
  let c = t.service_rate and q = (single t "Queue_sim.offer_with_output").q in
  if duration = 0.0 then []
  else if rate >= c then [ (c, duration) ]
  else if q <= 0.0 then [ (rate, duration) ]
  else begin
    let drain_time = q /. (c -. rate) in
    if drain_time >= duration then [ (c, duration) ]
    else [ (c, drain_time); (rate, duration -. drain_time) ]
  end

let offer_with_output t ~rate ~duration =
  let segments = output_segments t ~rate ~duration in
  let lost = offer t ~rate ~duration in
  (lost, segments)

let m_epochs = Obs.Counter.make "fluidsim/epochs"

(* A bulk pass: one trace span and one counter update, whatever the
   number of epochs. *)
let bulk t ~rates ~durations ~stride record =
  let n = Array.length rates in
  let outs =
    Array.map
      (fun _ -> if record = Nothing then [||] else Array.make n 0.0)
      t.lanes
  in
  Obs.Trace.begin_ "fluidsim/run";
  advance t ~rates ~durations ~stride record outs;
  Obs.Counter.add m_epochs (Array.length t.lanes * n);
  Obs.Trace.end_ "fluidsim/run";
  outs

let run t ~rates ~durations =
  if Array.length durations <> Array.length rates then
    invalid_arg "Queue_sim.run: rates and durations differ in length";
  for i = 0 to Array.length rates - 1 do
    check_epoch "Queue_sim.run" ~rate:rates.(i) ~duration:durations.(i)
  done;
  ignore (bulk t ~rates ~durations ~stride:1 Nothing);
  stats t

(* [Trace.create] has already checked the rates and the slot. *)
let trace_pass t trace record =
  let outs =
    bulk t ~rates:trace.Lrd_trace.Trace.rates
      ~durations:[| trace.Lrd_trace.Trace.slot |] ~stride:0 record
  in
  (outs, stats t)

let run_trace t trace = snd (trace_pass t trace Nothing)
let losses_per_slot t trace = trace_pass t trace Losses
let occupancy_per_slot t trace = trace_pass t trace Occupancy

let epoch_time_above ~service_rate ~initial ~rate ~duration ~level =
  if not (duration >= 0.0) then
    invalid_arg "Queue_sim.epoch_time_above: negative duration";
  let slope = rate -. service_rate in
  if slope > 0.0 then
    (* Rising: above the level from the crossing instant onward. *)
    duration -. Float.max 0.0 (Float.min duration ((level -. initial) /. slope))
  else if slope < 0.0 then
    (* Falling (clamped at 0): above until the crossing instant. *)
    Float.max 0.0 (Float.min duration ((initial -. level) /. -.slope))
  else if initial > level then duration
  else 0.0
