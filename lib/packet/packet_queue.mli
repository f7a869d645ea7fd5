(** FIFO packet queue with a finite buffer and a constant-rate server:
    the packet-level counterpart of the paper's fluid queue.

    The backlog (in bits) drains continuously at the service rate; an
    arriving packet is accepted in full if it fits
    ([backlog + size <= buffer]) and dropped in full otherwise —
    tail-drop, the behaviour of the ATM switch buffers the paper
    motivates with.  Event-driven and exact between arrivals.

    The waiting time recorded for an accepted packet is the backlog in
    front of it divided by the service rate (FIFO).

    One state serves several buffer sizes at once: each slot of sorted
    arrival times (see {!Arrivals}) is offered to every buffer, which
    keeps its own backlog and counts.  Each buffer's result is bitwise
    the result of a state holding that buffer alone, so one packetized
    arrival stream drives a whole buffer axis. *)

type stats = {
  offered_packets : int;
  offered_work : float;  (** Bits offered. *)
  dropped_packets : int;
  dropped_work : float;
  mean_delay : float;  (** Mean waiting time of accepted packets (s). *)
  max_delay : float;
  max_backlog : float;  (** Bits. *)
  final_backlog : float;
}

val loss_rate : stats -> float
(** Dropped work / offered work. *)

val packet_loss_rate : stats -> float
(** Dropped packets / offered packets (equal to {!loss_rate} for fixed
    packet sizes). *)

type t
(** Mutable tail-drop state for a set of buffers fed the same arrivals. *)

val create : service_rate:float -> buffers:float array -> t
(** An empty system (zero backlog, clock at 0) with one queue per entry
    of [buffers] (bits), all drained at [service_rate].
    @raise Invalid_argument on a nonpositive service rate or a negative
    buffer. *)

val add : t -> float array -> int -> size:float -> unit
(** [add t times n ~size] offers the packets arriving at
    [times.(0 .. n - 1)], each of [size] bits, to every buffer.  Times
    must be nondecreasing within the call and across calls (up to 1e-9
    s of slack).  Allocates nothing per packet: per-slot sums are kept
    in locals and enter the compensated accumulators once per call.
    @raise Invalid_argument if [n] is outside [0 .. Array.length times]
    or the arrivals go back in time. *)

val stats : t -> stats array
(** Statistics so far, one per buffer, in the order given to
    {!create}. *)
