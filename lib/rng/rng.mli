(** Deterministic pseudo-random number generation with explicit state.

    All stochastic code in this repository (trace generation, shuffling,
    Monte Carlo cross-checks) draws from this module so that every
    experiment is reproducible from a seed.  The generator is
    xoshiro256**, seeded through SplitMix64 as its authors recommend. *)

type t
(** Mutable generator state: four unboxed 64-bit words, updated in place
    by every draw. *)

val create : seed:int64 -> t
(** Fresh generator deterministically derived from [seed]. *)

val split : t -> t
(** A new generator whose stream is independent of (and deterministically
    derived from) the current state of [t].  Advances [t]. *)

val split_indexed : t -> index:int -> t
(** A new generator deterministically derived from the current state of
    [t] and [index], WITHOUT advancing [t].  Distinct indices give
    independent streams (the state words and the index are mixed through
    a SplitMix64 chain).  This is the splitting discipline for parallel
    sweeps: deriving cell [i]'s stream from the sweep's base generator
    and the cell index makes each cell's randomness a pure function of
    [(base state, i)], so results are identical no matter which domain
    runs the cell, in what order — or whether the sweep runs
    sequentially.
    @raise Invalid_argument if [index < 0]. *)

val copy : t -> t
(** Snapshot of the current state. *)

(** The draws are unboxed [noalloc] externals: a call from any module
    passes the state and receives the result in registers, so drawing
    never touches the minor heap. *)

external uint64 : t -> (int64[@unboxed])
  = "lrd_rng_uint64_byte" "lrd_rng_uint64"
[@@noalloc]
(** Next raw 64-bit output. *)

external float : t -> (float[@unboxed]) = "lrd_rng_float_byte" "lrd_rng_float"
[@@noalloc]
(** Uniform on \[0, 1): 53-bit mantissa resolution. *)

external float_pos : t -> (float[@unboxed])
  = "lrd_rng_float_pos_byte" "lrd_rng_float_pos"
[@@noalloc]
(** Uniform on (0, 1): never returns 0, safe for [log]. *)

val int : t -> bound:int -> int
(** Uniform on \[0, bound): rejection sampling, unbiased.
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool
