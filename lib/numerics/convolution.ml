let direct a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out = Array.make (na + nb - 1) 0.0 in
    for i = 0 to na - 1 do
      let ai = a.(i) in
      if ai <> 0.0 then
        for j = 0 to nb - 1 do
          out.(i + j) <- out.(i + j) +. (ai *. b.(j))
        done
    done;
    out
  end

let direct_into a b ~dst =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Convolution.direct_into: empty input";
  let out_len = na + nb - 1 in
  if Array.length dst < out_len then
    invalid_arg "Convolution.direct_into: dst too short";
  Array.fill dst 0 out_len 0.0;
  for i = 0 to na - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0.0 then
      for j = 0 to nb - 1 do
        let k = i + j in
        Array.unsafe_set dst k
          (Array.unsafe_get dst k +. (ai *. Array.unsafe_get b j))
      done
  done

(* The smallest even fast size >= want whose half is also fast — what a
   real-input transform of a linear convolution needs.  Every even fast
   size is twice a fast size, so this is exact, and consecutive fast
   sizes are within 25% of each other: near-power-of-two grids stop
   paying the 2x power-of-two padding penalty. *)
let real_transform_size_for want = 2 * Fft.good_size ((want + 1) / 2)

let fft a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out_len = na + nb - 1 in
    let n = real_transform_size_for out_len in
    let rp = Fft.Real.cached_plan n in
    let bins = Fft.Real.spectrum_length rp in
    let are = Array.make bins 0.0 and aim = Array.make bins 0.0 in
    let bre = Array.make bins 0.0 and bim = Array.make bins 0.0 in
    Fft.Real.forward_ip rp ~signal:a ~len:na ~spec_re:are ~spec_im:aim;
    Fft.Real.forward_ip rp ~signal:b ~len:nb ~spec_re:bre ~spec_im:bim;
    for i = 0 to bins - 1 do
      let r = (are.(i) *. bre.(i)) -. (aim.(i) *. bim.(i)) in
      let im = (are.(i) *. bim.(i)) +. (aim.(i) *. bre.(i)) in
      are.(i) <- r;
      aim.(i) <- im
    done;
    let out = Array.make out_len 0.0 in
    Fft.Real.inverse_ip rp ~spec_re:are ~spec_im:aim ~signal:out ~len:out_len;
    out
  end

(* The single crossover heuristic of the solver's grid construction.
   Measured at solver shapes (signal m+1 against kernel 2m+1): the
   schoolbook loop wins clearly below a length product of ~1.5k, the
   FFT wins clearly above ~4k, and the band between is within noise of
   even, so the conservative end of the measured band is kept. *)
let fft_product_threshold = 4096

let prefer_fft ~na ~nb = na * nb > fft_product_threshold

(* Crossover for kernels whose transform size is FIXED regardless of how
   little direct work the call needs — the autocovariance estimator
   transforms m = next_pow2 (2 n) points whether it wants 1 lag or n.
   Calibrated from the same measured constant: at the 64x64 break-even
   behind [fft_product_threshold], [fft_product_threshold] direct
   multiply-adds match a forward/inverse pair at size 128 (7 bits), so
   one transform point-bit costs threshold / (2 * 128 * 7) of them. *)
let prefer_fft_fixed ~transform_size ~direct_ops =
  if transform_size <= 0 then
    invalid_arg "Convolution.prefer_fft_fixed: size must be positive";
  let bits =
    (* ceil log2: fast sizes sit between powers of two, so round up. *)
    let b = ref 0 and v = ref 1 in
    while !v < transform_size do
      incr b;
      v := !v lsl 1
    done;
    max 1 !b
  in
  let transform_point_bits = float_of_int (2 * transform_size * bits) in
  float_of_int direct_ops
  > float_of_int fft_product_threshold /. (2.0 *. 128.0 *. 7.0)
    *. transform_point_bits

(* ------------------------------------------------------------------ *)
(* Planned real convolution against a fixed kernel.

   The plan owns the kernel's half-spectrum, a real-transform plan, and
   half-spectrum scratch, so [execute_real] performs no heap allocation in
   steady state: pack the (zero-extended) signal straight into the
   half-size transform, multiply the n/2 + 1 independent bins in one
   fused pass (conjugate symmetry makes the upper half free), and
   interleave the inverse directly into [dst].

   A plan built with an explicit [size] smaller than the full linear
   length computes CIRCULAR convolutions: the kernel is wrapped mod
   [size] at build time, which is what the solver's aliased Lindley
   step wants.  Such a plan refuses the linear [execute_real]. *)

type real_plan = {
  kernel_len : int;
  max_signal : int;
  n : int;  (* transform size *)
  linear : bool;  (* n covers na + nk - 1: [execute_real] is linear *)
  rfft : Fft.Real.t;
  kre : float array;  (* kernel half-spectrum, length n/2 + 1 *)
  kim : float array;
  sre : float array;  (* signal half-spectrum scratch *)
  sim : float array;
}

let make_real_plan ?size ~kernel ~max_signal () =
  let nk = Array.length kernel in
  if nk = 0 then invalid_arg "Convolution.make_real_plan: empty kernel";
  if max_signal < 1 then
    invalid_arg "Convolution.make_real_plan: max_signal < 1";
  let full = nk + max_signal - 1 in
  let n = match size with None -> real_transform_size_for full | Some s -> s in
  if n < max_signal then
    invalid_arg "Convolution.make_real_plan: size smaller than max_signal";
  let rfft = Fft.Real.make_plan n in
  let bins = Fft.Real.spectrum_length rfft in
  let kre = Array.make bins 0.0 and kim = Array.make bins 0.0 in
  if nk <= n then
    Fft.Real.forward_ip rfft ~signal:kernel ~len:nk ~spec_re:kre ~spec_im:kim
  else begin
    (* Circular plan shorter than the kernel: wrap the kernel mod n. *)
    let wrapped = Array.make n 0.0 in
    for i = 0 to nk - 1 do
      let j = i mod n in
      wrapped.(j) <- wrapped.(j) +. kernel.(i)
    done;
    Fft.Real.forward_ip rfft ~signal:wrapped ~len:n ~spec_re:kre ~spec_im:kim
  end;
  {
    kernel_len = nk;
    max_signal;
    n;
    linear = n >= full;
    rfft;
    kre;
    kim;
    sre = Array.make bins 0.0;
    sim = Array.make bins 0.0;
  }

let real_transform_size plan = plan.n

(* The fused half-spectrum pass shared by every execute flavor. *)
let multiply_spectra plan =
  let kre = plan.kre and kim = plan.kim in
  let sre = plan.sre and sim = plan.sim in
  for i = 0 to Array.length sre - 1 do
    let ar = Array.unsafe_get sre i and ai = Array.unsafe_get sim i in
    let br = Array.unsafe_get kre i and bi = Array.unsafe_get kim i in
    Array.unsafe_set sre i ((ar *. br) -. (ai *. bi));
    Array.unsafe_set sim i ((ar *. bi) +. (ai *. br))
  done

let execute_real plan a ~dst =
  let na = Array.length a in
  if na = 0 then invalid_arg "Convolution.execute_real: empty signal";
  if na > plan.max_signal then
    invalid_arg "Convolution.execute_real: signal longer than plan";
  if not plan.linear then
    invalid_arg
      "Convolution.execute_real: circular plan cannot produce linear output";
  let out_len = na + plan.kernel_len - 1 in
  if Array.length dst < out_len then
    invalid_arg "Convolution.execute_real: dst too short";
  Fft.Real.forward_ip plan.rfft ~signal:a ~len:na ~spec_re:plan.sre
    ~spec_im:plan.sim;
  multiply_spectra plan;
  Fft.Real.inverse_ip plan.rfft ~spec_re:plan.sre ~spec_im:plan.sim ~signal:dst
    ~len:out_len

let execute_real_circular plan ~signal ~len ~dst =
  if len < 1 || len > plan.max_signal || len > plan.n then
    invalid_arg "Convolution.execute_real_circular: bad signal length";
  if Bigarray.Array1.dim dst < plan.n then
    invalid_arg "Convolution.execute_real_circular: dst shorter than size";
  Fft.Real.forward_big plan.rfft ~signal ~len ~spec_re:plan.sre
    ~spec_im:plan.sim;
  multiply_spectra plan;
  Fft.Real.inverse_big plan.rfft ~spec_re:plan.sre ~spec_im:plan.sim
    ~signal:dst ~len:plan.n

(* Schoolbook convolution reading the signal from / writing into
   Bigarray vectors — the solver's direct path over its unboxed state.
   Allocation-free. *)
let direct_into_big (signal : Fft.vec) ~len ~kernel ~(dst : Fft.vec) =
  let nb = Array.length kernel in
  if len = 0 || nb = 0 then invalid_arg "Convolution.direct_into_big: empty input";
  let out_len = len + nb - 1 in
  if Bigarray.Array1.dim dst < out_len then
    invalid_arg "Convolution.direct_into_big: dst too short";
  for i = 0 to out_len - 1 do
    Bigarray.Array1.unsafe_set dst i 0.0
  done;
  for i = 0 to len - 1 do
    let ai = Bigarray.Array1.unsafe_get signal i in
    if ai <> 0.0 then
      for j = 0 to nb - 1 do
        let k = i + j in
        Bigarray.Array1.unsafe_set dst k
          (Bigarray.Array1.unsafe_get dst k +. (ai *. Array.unsafe_get kernel j))
      done
  done
