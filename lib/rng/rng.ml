(* xoshiro256** state: the four 64-bit words s0..s3 at byte offsets 0,
   8, 16 and 24 of a 32-byte buffer, native byte order.  Unlike mutable
   int64 record fields, the words are stored unboxed, so a draw updates
   the state in place without allocating. *)
type t = Bytes.t

(* SplitMix64: used only to expand the seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let word t i = Bytes.get_int64_ne t (8 * i)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let create ~seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

(* The xoshiro256** step lives in rng_stubs.c.  An OCaml function that
   returns an int64 or a float boxes its result at every call from
   another module (no flambda, and dev builds compile with -opaque), so
   the draws are unboxed noalloc externals instead. *)
external uint64 : t -> (int64[@unboxed])
  = "lrd_rng_uint64_byte" "lrd_rng_uint64"
[@@noalloc]

external float : t -> (float[@unboxed]) = "lrd_rng_float_byte" "lrd_rng_float"
[@@noalloc]

external float_pos : t -> (float[@unboxed])
  = "lrd_rng_float_pos_byte" "lrd_rng_float_pos"
[@@noalloc]

let split t = create ~seed:(uint64 t)

(* Derive a child stream from the CURRENT state and a task index without
   advancing the parent: the four state words and the index are absorbed
   into a SplitMix64 chain, whose final output seeds the child.  Because
   the parent is left untouched, the same (state, index) pair always
   yields the same stream no matter how many siblings were derived
   before it or in what order — the property parallel sweeps need for
   scheduling-independent results. *)
let split_indexed t ~index =
  if index < 0 then invalid_arg "Rng.split_indexed: index must be nonnegative";
  let state = ref (word t 0) in
  let absorb x = state := Int64.logxor (splitmix64 state) x in
  absorb (word t 1);
  absorb (word t 2);
  absorb (word t 3);
  absorb (Int64.of_int index);
  create ~seed:(splitmix64 state)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.div Int64.max_int bound64) 1L in
  let rec go () =
    let raw = Int64.shift_right_logical (uint64 t) 1 in
    let q = Int64.div raw bound64 in
    if Int64.compare q limit <= 0 then Int64.to_int (Int64.rem raw bound64)
    else go ()
  in
  go ()

let bool t = Int64.compare (uint64 t) 0L < 0
