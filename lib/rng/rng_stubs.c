/* xoshiro256** draws over the 32-byte state of rng.ml.

   The state is an OCaml [Bytes] holding the four 64-bit words s0..s3
   in native byte order (rng.ml reads and writes the same words with
   [Bytes.get_int64_ne]/[set_int64_ne]).  The native entry points take
   and return unboxed values and never allocate, so a draw costs a
   direct call from any module; the bytecode entry points box. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline uint64_t rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

static inline uint64_t next(value state)
{
  uint64_t *s = (uint64_t *) Bytes_val(state);
  uint64_t result = rotl(s[1] * 5, 7) * 9;
  uint64_t tmp = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= tmp;
  s[3] = rotl(s[3], 45);
  return result;
}

/* Top 53 bits scaled to [0, 1). */
static inline double unit_float(value state)
{
  return (double) (next(state) >> 11) * 0x1.0p-53;
}

int64_t lrd_rng_uint64(value state)
{
  return (int64_t) next(state);
}

double lrd_rng_float(value state)
{
  return unit_float(state);
}

double lrd_rng_float_pos(value state)
{
  double x;
  do x = unit_float(state); while (!(x > 0.0));
  return x;
}

value lrd_rng_uint64_byte(value state)
{
  return caml_copy_int64(lrd_rng_uint64(state));
}

value lrd_rng_float_byte(value state)
{
  return caml_copy_double(lrd_rng_float(state));
}

value lrd_rng_float_pos_byte(value state)
{
  return caml_copy_double(lrd_rng_float_pos(state));
}
