open Lrd_packet

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng () = Lrd_rng.Rng.create ~seed:424242L

let constant_trace ~rate ~slots ~slot =
  Lrd_trace.Trace.create ~rates:(Array.make slots rate) ~slot

(* Packets a producer emits in total. *)
let count produce =
  let total = ref 0 in
  produce (fun _ n -> total := !total + n);
  !total

(* One queue per buffer, fed by a producer of fixed-size packets. *)
let run_produced ~service_rate ~buffers ~size produce =
  let q = Packet_queue.create ~service_rate ~buffers in
  produce (fun times n -> Packet_queue.add q times n ~size);
  Packet_queue.stats q

(* Single-buffer run over explicit (time, size) packets, one per call. *)
let run_packets ~service_rate ~buffer packets =
  let q = Packet_queue.create ~service_rate ~buffers:[| buffer |] in
  List.iter
    (fun (time, size) -> Packet_queue.add q [| time |] 1 ~size)
    packets;
  (Packet_queue.stats q).(0)

(* ------------------------------------------------------------------ *)
(* Arrivals *)

let test_poissonize_count () =
  (* Expected packets = work / size. *)
  let trace = constant_trace ~rate:10.0 ~slots:2_000 ~slot:0.01 in
  let n = count (Arrivals.poissonize (rng ()) trace ~packet_size:0.05) in
  (* Mean 4000, std ~ 63: accept 5 sigma. *)
  Alcotest.(check bool) "count near mean" true (abs (n - 4000) < 320)

let test_poissonize_time_ordered () =
  let trace = constant_trace ~rate:5.0 ~slots:200 ~slot:0.02 in
  let last = ref neg_infinity in
  Arrivals.poissonize (rng ()) trace ~packet_size:0.01 (fun times n ->
      for k = 0 to n - 1 do
        if times.(k) < !last then Alcotest.fail "out of order";
        last := times.(k)
      done)

let test_poissonize_slots_uniform () =
  (* Each call carries one slot: its times are sorted and lie in
     [t0, t0 + slot), and the in-slot offsets are uniform (KS).  A slot
     of 0.5 s keeps t0 = i * slot and the offsets exact. *)
  let slot = 0.5 in
  let trace = constant_trace ~rate:40.0 ~slots:2_000 ~slot in
  let offsets = ref [] and last_slot = ref (-1) in
  Arrivals.poissonize (rng ()) trace ~packet_size:1.0 (fun times n ->
      let i = Float.to_int (times.(0) /. slot) in
      let t0 = float_of_int i *. slot in
      if i <= !last_slot then Alcotest.failf "slot %d delivered twice" i;
      last_slot := i;
      for k = 0 to n - 1 do
        let t = times.(k) in
        if not (t >= t0 && t < t0 +. slot) then
          Alcotest.failf "time %.17g outside slot [%g, %g)" t t0 (t0 +. slot);
        if k > 0 && t < times.(k - 1) then Alcotest.fail "slot not sorted";
        offsets := ((t -. t0) /. slot) :: !offsets
      done);
  let u = Array.of_list !offsets in
  Array.sort Float.compare u;
  let n = float_of_int (Array.length u) in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let above = (float_of_int (i + 1) /. n) -. x
      and below = x -. (float_of_int i /. n) in
      d := Float.max !d (Float.max above below))
    u;
  (* 0.1% critical value of the KS statistic: 1.95 / sqrt n. *)
  if !d *. sqrt n > 1.95 then
    Alcotest.failf "KS rejects uniform offsets: D = %g over %.0f points" !d n

let test_poissonize_allocates_per_slot_only () =
  (* A warm producer and queue allocate per slot (the compensated sums
     take boxed floats), never per packet: at ~400 packets per slot the
     whole run stays below a tenth of a minor word per packet. *)
  let trace = constant_trace ~rate:400.0 ~slots:500 ~slot:1.0 in
  let r = rng () in
  let feed q =
    Arrivals.poissonize r trace ~packet_size:1.0 (fun times n ->
        Packet_queue.add q times n ~size:1.0)
  in
  let queue () =
    Packet_queue.create ~service_rate:480.0 ~buffers:[| 5.0; 50.0 |]
  in
  feed (queue ());
  let q = queue () in
  let w0 = Gc.minor_words () in
  feed q;
  let allocated = Gc.minor_words () -. w0 in
  let packets = (Packet_queue.stats q).(0).Packet_queue.offered_packets in
  match Sys.backend_type with
  | Sys.Native ->
      if allocated > 0.1 *. float_of_int packets then
        Alcotest.failf "%.0f minor words for %d packets" allocated packets
  | Sys.Bytecode | Sys.Other _ -> ()

let test_paced_exact_count () =
  (* Deterministic pacing: exactly work / size packets (up to the final
     fractional carry). *)
  let trace = constant_trace ~rate:8.0 ~slots:1_000 ~slot:0.01 in
  Alcotest.(check int) "exact" 4000
    (count (Arrivals.paced trace ~packet_size:0.02))

let test_paced_carries_fractions () =
  (* 0.25 expected packets per slot (exactly representable): 10 slots
     must yield 2 packets, not 0. *)
  let trace = constant_trace ~rate:0.25 ~slots:10 ~slot:1.0 in
  Alcotest.(check int) "carried" 2
    (count (Arrivals.paced trace ~packet_size:1.0))

let test_arrivals_reject_bad_size () =
  let trace = constant_trace ~rate:1.0 ~slots:10 ~slot:1.0 in
  Alcotest.check_raises "zero size"
    (Invalid_argument "Arrivals: packet_size must be positive") (fun () ->
      Arrivals.poissonize (rng ()) trace ~packet_size:0.0 (fun _ _ -> ()));
  Alcotest.check_raises "paced zero size"
    (Invalid_argument "Arrivals: packet_size must be positive") (fun () ->
      Arrivals.paced trace ~packet_size:0.0 (fun _ _ -> ()))

(* ------------------------------------------------------------------ *)
(* Packet queue *)

let test_queue_accepts_within_buffer () =
  let stats =
    run_packets ~service_rate:1.0 ~buffer:10.0
      [ (0.0, 3.0); (0.0, 3.0); (0.0, 3.0) ]
  in
  Alcotest.(check int) "no drops" 0 stats.Packet_queue.dropped_packets;
  check_close "backlog" 9.0 stats.Packet_queue.final_backlog;
  (* FIFO delays: 0, 3, 6 seconds. *)
  check_close "mean delay" 3.0 stats.Packet_queue.mean_delay;
  check_close "max delay" 6.0 stats.Packet_queue.max_delay

let test_queue_tail_drop () =
  let stats =
    run_packets ~service_rate:1.0 ~buffer:5.0
      [ (0.0, 3.0); (0.0, 3.0); (0.0, 2.0) ]
  in
  (* Second packet would reach 6 > 5: dropped; third fits (3+2=5). *)
  Alcotest.(check int) "one drop" 1 stats.Packet_queue.dropped_packets;
  check_close "dropped work" 3.0 stats.Packet_queue.dropped_work;
  check_close "backlog" 5.0 stats.Packet_queue.final_backlog

let test_queue_drains_between_arrivals () =
  let stats =
    run_packets ~service_rate:2.0 ~buffer:10.0 [ (0.0, 4.0); (1.0, 1.0) ]
  in
  (* After 1 s the backlog is 2; second packet waits 1 s. *)
  Alcotest.(check int) "no drops" 0 stats.Packet_queue.dropped_packets;
  check_close "final backlog" 3.0 stats.Packet_queue.final_backlog;
  check_close "max delay" 1.0 stats.Packet_queue.max_delay

let test_queue_slot_matches_single_packets () =
  (* One slot of three packets is the same system as three one-packet
     calls, and each buffer of a shared state sees its own queue. *)
  let q = Packet_queue.create ~service_rate:1.0 ~buffers:[| 10.0; 5.0 |] in
  Packet_queue.add q [| 0.0; 0.0; 0.0 |] 3 ~size:3.0;
  let stats = Packet_queue.stats q in
  Alcotest.(check int) "deep buffer keeps all" 0
    stats.(0).Packet_queue.dropped_packets;
  check_close "deep buffer delay" 3.0 stats.(0).Packet_queue.mean_delay;
  Alcotest.(check int) "shallow buffer drops two" 2
    stats.(1).Packet_queue.dropped_packets;
  check_close "shallow backlog" 3.0 stats.(1).Packet_queue.final_backlog

let test_queue_loss_rates () =
  let stats =
    run_packets ~service_rate:1.0 ~buffer:1.0
      [ (0.0, 1.0); (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) ]
  in
  check_close "work loss" 0.75 (Packet_queue.loss_rate stats);
  check_close "packet loss" 0.75 (Packet_queue.packet_loss_rate stats)

let test_queue_rejects_disorder () =
  let msg = "Packet_queue.add: arrivals must be time ordered" in
  Alcotest.check_raises "time travel across calls" (Invalid_argument msg)
    (fun () ->
      ignore
        (run_packets ~service_rate:1.0 ~buffer:10.0
           [ (1.0, 1.0); (0.0, 1.0) ]));
  Alcotest.check_raises "time travel within a slot" (Invalid_argument msg)
    (fun () ->
      let q = Packet_queue.create ~service_rate:1.0 ~buffers:[| 10.0 |] in
      Packet_queue.add q [| 1.0; 0.0 |] 2 ~size:1.0)

let test_queue_rejects_bad_params () =
  Alcotest.check_raises "service rate"
    (Invalid_argument "Packet_queue.create: service rate must be positive")
    (fun () ->
      ignore (Packet_queue.create ~service_rate:0.0 ~buffers:[| 1.0 |]));
  Alcotest.check_raises "buffer"
    (Invalid_argument "Packet_queue.create: buffer must be nonnegative")
    (fun () ->
      ignore (Packet_queue.create ~service_rate:1.0 ~buffers:[| 1.0; -1.0 |]));
  Alcotest.check_raises "count"
    (Invalid_argument "Packet_queue.add: count out of range") (fun () ->
      let q = Packet_queue.create ~service_rate:1.0 ~buffers:[| 1.0 |] in
      Packet_queue.add q [| 0.0 |] 2 ~size:1.0)

(* ------------------------------------------------------------------ *)
(* Fluid limit *)

let random_trace () =
  let r = rng () in
  Lrd_trace.Trace.create
    ~rates:(Array.init 20_000 (fun _ -> Lrd_rng.Rng.float r *. 2.0))
    ~slot:0.05

let test_small_packets_approach_fluid () =
  let trace = random_trace () in
  let c = 1.25 and buffer = 1.0 in
  let fluid =
    let sim = Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| buffer |] in
    Lrd_fluidsim.Queue_sim.loss_rate
      (Lrd_fluidsim.Queue_sim.run_trace sim trace).(0)
  in
  (* Deterministic pacing with tiny packets: the closest packet system
     to the fluid one. *)
  let packet =
    Packet_queue.loss_rate
      (run_produced ~service_rate:c ~buffers:[| buffer |] ~size:0.002
         (Arrivals.paced trace ~packet_size:0.002)).(0)
  in
  check_close ~eps:0.08 "fluid limit" fluid packet

let test_large_packets_lose_more () =
  let trace = random_trace () in
  let c = 1.25 and buffer = 0.5 in
  let loss size =
    Packet_queue.loss_rate
      (run_produced ~service_rate:c ~buffers:[| buffer |] ~size
         (Arrivals.poissonize (rng ()) trace ~packet_size:size)).(0)
  in
  Alcotest.(check bool) "granularity costs" true (loss 0.25 > loss 0.01)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random slots of sorted arrivals: each slot is a packet size and a
   list of nonnegative gaps, laid end to end. *)
let slots_gen =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (pair (float_range 0.1 2.0)
         (list_size (int_range 0 8) (float_range 0.0 2.0))))

let slot_arrays slots =
  let t = ref 0.0 in
  List.map
    (fun (size, gaps) ->
      let times =
        Array.of_list
          (List.map
             (fun gap ->
               t := !t +. gap;
               !t)
             gaps)
      in
      (size, times))
    slots

let feed ~service_rate ~buffers slots =
  let q = Packet_queue.create ~service_rate ~buffers in
  List.iter
    (fun (size, times) ->
      Packet_queue.add q times (Array.length times) ~size)
    slots;
  Packet_queue.stats q

let prop_queue_work_accounting =
  QCheck.Test.make ~name:"offered = dropped + accepted work" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 50)
           (pair (float_range 0.0 5.0) (float_range 0.1 2.0))))
    (fun events ->
      (* Build time-ordered arrivals from cumulative gaps. *)
      let t = ref 0.0 in
      let packets =
        List.map
          (fun (gap, size) ->
            t := !t +. gap;
            (!t, size))
          events
      in
      let stats = run_packets ~service_rate:1.0 ~buffer:3.0 packets in
      let accepted =
        stats.Packet_queue.offered_work -. stats.Packet_queue.dropped_work
      in
      accepted >= -1e-9
      && stats.Packet_queue.offered_packets = List.length packets)

let same_stats a b =
  let bits x = Int64.bits_of_float x in
  let open Packet_queue in
  a.offered_packets = b.offered_packets
  && a.dropped_packets = b.dropped_packets
  && List.for_all2
       (fun x y -> bits x = bits y)
       [
         a.offered_work; a.dropped_work; a.mean_delay; a.max_delay;
         a.max_backlog; a.final_backlog;
       ]
       [
         b.offered_work; b.dropped_work; b.mean_delay; b.max_delay;
         b.max_backlog; b.final_backlog;
       ]

let prop_multi_buffer_matches_single =
  QCheck.Test.make ~name:"k-buffer state = k one-buffer runs, bitwise"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.2 3.0)
           (list_size (int_range 1 5) (float_range 0.0 6.0))
           slots_gen))
    (fun (service_rate, buffers, slots) ->
      let buffers = Array.of_list buffers and slots = slot_arrays slots in
      let shared = feed ~service_rate ~buffers slots in
      Array.for_all2
        (fun buffer s ->
          same_stats s (feed ~service_rate ~buffers:[| buffer |] slots).(0))
        buffers shared)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "packet"
    [
      ( "arrivals",
        [
          Alcotest.test_case "poisson count" `Quick test_poissonize_count;
          Alcotest.test_case "time ordered" `Quick
            test_poissonize_time_ordered;
          Alcotest.test_case "slots sorted and uniform" `Quick
            test_poissonize_slots_uniform;
          Alcotest.test_case "allocates per slot only" `Quick
            test_poissonize_allocates_per_slot_only;
          Alcotest.test_case "paced exact count" `Quick test_paced_exact_count;
          Alcotest.test_case "paced carries fractions" `Quick
            test_paced_carries_fractions;
          Alcotest.test_case "rejects bad size" `Quick
            test_arrivals_reject_bad_size;
        ] );
      ( "queue",
        [
          Alcotest.test_case "accepts within buffer" `Quick
            test_queue_accepts_within_buffer;
          Alcotest.test_case "tail drop" `Quick test_queue_tail_drop;
          Alcotest.test_case "drains between arrivals" `Quick
            test_queue_drains_between_arrivals;
          Alcotest.test_case "slot matches single packets" `Quick
            test_queue_slot_matches_single_packets;
          Alcotest.test_case "loss rates" `Quick test_queue_loss_rates;
          Alcotest.test_case "rejects disorder" `Quick
            test_queue_rejects_disorder;
          Alcotest.test_case "rejects bad params" `Quick
            test_queue_rejects_bad_params;
        ] );
      ( "fluid-limit",
        [
          Alcotest.test_case "small packets approach fluid" `Slow
            test_small_packets_approach_fluid;
          Alcotest.test_case "large packets lose more" `Slow
            test_large_packets_lose_more;
        ] );
      ( "properties",
        qcheck [ prop_queue_work_accounting; prop_multi_buffer_matches_single ]
      );
    ]
