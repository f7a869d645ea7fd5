open Lrd_numerics

let check a ~max_lag =
  let n = Array.length a in
  if max_lag < 0 then invalid_arg "Autocorr: max_lag must be nonnegative";
  if max_lag >= n then invalid_arg "Autocorr: max_lag must be below length"

let autocovariance_direct a ~max_lag =
  check a ~max_lag;
  let n = Array.length a in
  let m = Array_ops.mean a in
  Array.init (max_lag + 1) (fun k ->
      let acc = Summation.create () in
      for i = 0 to n - 1 - k do
        Summation.add acc ((a.(i) -. m) *. (a.(i + k) -. m))
      done;
      Summation.total acc /. float_of_int n)

(* Wiener-Khinchin: |FFT(x - m)|^2, inverse-transformed.  Zero padding
   to >= 2n turns the circular correlation into the linear one; the
   power spectrum is real, so the inverse reads a zero imaginary part. *)
let acv_fft a ~max_lag ~size =
  let n = Array.length a in
  let power = Half_spectrum.power ~size a in
  let dst = Array.make (max_lag + 1) 0.0 in
  Fft.Real.inverse_ip (Fft.Real.cached_plan size) ~spec_re:power
    ~spec_im:(Array.make (Array.length power) 0.0)
    ~signal:dst ~len:(max_lag + 1);
  Array.map (fun v -> v /. float_of_int n) dst

let autocovariance a ~max_lag =
  check a ~max_lag;
  let n = Array.length a in
  let size = Fft.next_power_of_two (2 * n) in
  (* The FFT always transforms [size] points no matter how few lags are
     wanted, so the crossover weighs the fixed transform cost against
     the O(n * max_lag) direct loop; both paths are exact. *)
  if
    Convolution.prefer_fft_fixed ~transform_size:size
      ~direct_ops:(n * (max_lag + 1))
  then acv_fft a ~max_lag ~size
  else autocovariance_direct a ~max_lag

let autocorrelation a ~max_lag =
  let acv = autocovariance a ~max_lag in
  if acv.(0) <= 0.0 then
    invalid_arg "Autocorr.autocorrelation: constant series";
  Array.map (fun v -> v /. acv.(0)) acv
