(** Packet arrival processes derived from fluid rate traces.

    The paper works entirely in the fluid abstraction; to quantify what
    that abstraction hides, a rate trace is "packetized": within each
    slot of average rate [r], packets of a fixed size are emitted as a
    Poisson stream of intensity [r / size] (a doubly stochastic Poisson
    process whose random intensity is the trace), or on a deterministic
    lattice with the same per-slot count in expectation.

    Both producers work slot by slot: [f times n] is called once per
    slot that emits packets, in slot order, with the slot's [n] arrival
    instants sorted in [times.(0 .. n - 1)].  [times] is one scratch
    buffer reused for every slot (longer than [n] in general, and
    overwritten after [f] returns), sized to the largest slot — never a
    whole-trace packet array — so a warm producer allocates nothing per
    packet. *)

val poissonize :
  Lrd_rng.Rng.t ->
  Lrd_trace.Trace.t ->
  packet_size:float ->
  (float array -> int -> unit) ->
  unit
(** Doubly stochastic Poisson packetization: slot [i] with rate [r_i]
    emits [Poisson(r_i * slot / packet_size)] packets at i.i.d. uniform
    instants within the slot, in increasing order.  The sorted instants
    are drawn directly as normalized exponential spacings (the partial
    sums of [n + 1] exponentials over their total), so no sort is
    needed.  @raise Invalid_argument if [packet_size <= 0]. *)

val paced :
  Lrd_trace.Trace.t ->
  packet_size:float ->
  (float array -> int -> unit) ->
  unit
(** Deterministic pacing: slot [i] emits its expected packet count
    (accumulated across slots so fractional packets are not lost),
    evenly spaced.  The smoothest packetization — isolates the effect of
    packet granularity from Poisson jitter.
    @raise Invalid_argument if [packet_size <= 0]. *)
