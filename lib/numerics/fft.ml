let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

type vec =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ------------------------------------------------------------------ *)
(* Planned power-of-two transforms.

   A plan for size [n] precomputes the bit-reversal permutation and one
   flat twiddle-factor table shared by every butterfly stage: stage
   [len = 2^s] reads its [half = len/2] factors at offset [half - 1]
   (the halves of the earlier stages sum to exactly that), so the table
   holds [n - 1] factors total.  Each factor is computed by a direct
   cos/sin call rather than a repeated-multiplication recurrence, which
   both removes the O(len) error accumulation within a stage and moves
   all trigonometry out of the transform itself. *)

type pow2_plan = {
  p2_size : int;
  bitrev : int array;  (* bitrev.(i) is i with log2 n bits reversed. *)
  wre : float array;  (* cos of the forward angle -2 pi k / len. *)
  wim : float array;  (* sin of the forward angle (<= 0 half-plane). *)
}

(* Sizes beyond powers of two.  [Split] peels one odd radix r in {3, 5}
   off the top with a decimation-in-time step over r interleaved
   sub-transforms; nesting two Splits reaches 15 * 2^k.  [Bluestein]
   re-expresses an arbitrary-size DFT as a chirp-modulated circular
   convolution at a power-of-two size >= 2n - 1 — never faster than
   padding, but exact for any length, so it completes the API.  Both
   own scratch, so unlike the power-of-two plans they must not be used
   concurrently. *)
type plan =
  | Pow2 of pow2_plan
  | Split of {
      s_size : int;
      radix : int;
      sub : plan;  (* size s_size / radix *)
      twre : float array;  (* cos (-2 pi j / n), j = 0 .. n - 1 *)
      twim : float array;
      sre : float array array;  (* radix scratch rows of length n/radix *)
      sim : float array array;
    }
  | Bluestein of {
      b_size : int;
      np : pow2_plan;  (* power-of-two plan at np_size >= 2 n - 1 *)
      cre : float array;  (* chirp c_j = exp (-i pi j^2 / n), j < n *)
      cim : float array;
      bre : float array;  (* spectrum of the wrapped conjugate chirp *)
      bim : float array;
      sre : float array;  (* scratch, length np size *)
      sim : float array;
    }

let m_plans_built = Lrd_obs.Obs.Counter.make "fft/plans_built"

let make_pow2_plan n =
  if not (is_power_of_two n) then
    invalid_arg "Fft.make_plan: size must be a power of two";
  Lrd_obs.Obs.Counter.incr m_plans_built;
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.instant ~arg:n "fft/plan_build";
  let bitrev = Array.make n 0 in
  for i = 1 to n - 1 do
    (* Shift the previous reversal right and bring in the new low bit. *)
    bitrev.(i) <- (bitrev.(i lsr 1) lsr 1) lor (if i land 1 = 0 then 0 else n lsr 1)
  done;
  let wre = Array.make (max 1 (n - 1)) 1.0 in
  let wim = Array.make (max 1 (n - 1)) 0.0 in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let offset = half - 1 in
    for k = 0 to half - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int !len in
      wre.(offset + k) <- cos ang;
      wim.(offset + k) <- sin ang
    done;
    len := !len * 2
  done;
  { p2_size = n; bitrev; wre; wim }

let make_plan n = Pow2 (make_pow2_plan n)

(* Supported fast sizes are 2^a * f with f in {1, 3, 5, 15}: one Split
   per odd radix on top of a power-of-two core. *)
let odd_part n =
  let rec go m = if m land 1 = 0 then go (m lsr 1) else m in
  go n

let is_fast_size n =
  n > 0 && (match odd_part n with 1 | 3 | 5 | 15 -> true | _ -> false)

(* Cost-aware: the smallest candidate per odd factor, then the cheapest
   by measured per-point weight (the split stages of the odd radices add
   ~6-12% per layer over the power-of-two butterflies, so e.g. 1920 is a
   smaller grid than 2048 but a slower transform).  Ties break toward
   the smaller size. *)
let good_size n =
  let n = max 1 n in
  let best = ref 0 and best_cost = ref infinity in
  List.iter
    (fun (f, weight) ->
      let s = ref f in
      while !s < n do s := !s * 2 done;
      let cost = float_of_int !s *. weight in
      if
        cost < !best_cost
        || (cost = !best_cost && (!best = 0 || !s < !best))
      then begin
        best := !s;
        best_cost := cost
      end)
    [ (1, 1.0); (3, 1.06); (5, 1.12); (15, 1.19) ];
  !best

let forward_twiddles n =
  let twre = Array.make n 1.0 and twim = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let ang = -2.0 *. Float.pi *. float_of_int j /. float_of_int n in
    twre.(j) <- cos ang;
    twim.(j) <- sin ang
  done;
  (twre, twim)

(* The in-place power-of-two butterflies.  [conjugate = false] is the
   forward transform; [true] runs the inverse (without the 1/n scaling)
   by negating the table's sine.  Performs no heap allocation. *)
let transform_pow2 plan ~conjugate re im =
  let n = plan.p2_size in
  let bitrev = plan.bitrev in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get bitrev i in
    if i < j then begin
      let tr = Array.unsafe_get re i and ti = Array.unsafe_get im i in
      Array.unsafe_set re i (Array.unsafe_get re j);
      Array.unsafe_set im i (Array.unsafe_get im j);
      Array.unsafe_set re j tr;
      Array.unsafe_set im j ti
    end
  done;
  let wre = plan.wre and wim = plan.wim in
  let sign = if conjugate then -1.0 else 1.0 in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let offset = half - 1 in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let cr = Array.unsafe_get wre (offset + k)
        and ci = sign *. Array.unsafe_get wim (offset + k) in
        let a = !i + k in
        let b = a + half in
        let rb = Array.unsafe_get re b and ib = Array.unsafe_get im b in
        let tr = (rb *. cr) -. (ib *. ci) and ti = (rb *. ci) +. (ib *. cr) in
        let ra = Array.unsafe_get re a and ia = Array.unsafe_get im a in
        Array.unsafe_set re b (ra -. tr);
        Array.unsafe_set im b (ia -. ti);
        Array.unsafe_set re a (ra +. tr);
        Array.unsafe_set im a (ia +. ti)
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

(* Bluestein's identity: jk = (j^2 + k^2 - (k - j)^2) / 2, so
   X_k = c_k * sum_j (x_j c_j) conj c_{k-j} with c_j = exp(-i pi j^2/n)
   — a circular convolution of the chirped signal against the conjugate
   chirp, evaluated at any power-of-two size >= 2n - 1. *)
let bluestein_forward ~n ~np ~cre ~cim ~bre ~bim ~sre ~sim re im =
  let ns = np.p2_size in
  Array.fill sre 0 ns 0.0;
  Array.fill sim 0 ns 0.0;
  for j = 0 to n - 1 do
    let xr = Array.unsafe_get re j and xi = Array.unsafe_get im j in
    let cr = Array.unsafe_get cre j and ci = Array.unsafe_get cim j in
    Array.unsafe_set sre j ((xr *. cr) -. (xi *. ci));
    Array.unsafe_set sim j ((xr *. ci) +. (xi *. cr))
  done;
  transform_pow2 np ~conjugate:false sre sim;
  for k = 0 to ns - 1 do
    let ar = Array.unsafe_get sre k and ai = Array.unsafe_get sim k in
    let br = Array.unsafe_get bre k and bi = Array.unsafe_get bim k in
    Array.unsafe_set sre k ((ar *. br) -. (ai *. bi));
    Array.unsafe_set sim k ((ar *. bi) +. (ai *. br))
  done;
  transform_pow2 np ~conjugate:true sre sim;
  let inv = 1.0 /. float_of_int ns in
  for k = 0 to n - 1 do
    let ar = inv *. Array.unsafe_get sre k
    and ai = inv *. Array.unsafe_get sim k in
    let cr = Array.unsafe_get cre k and ci = Array.unsafe_get cim k in
    Array.unsafe_set re k ((ar *. cr) -. (ai *. ci));
    Array.unsafe_set im k ((ar *. ci) +. (ai *. cr))
  done

let rec transform_any plan ~conjugate re im =
  match plan with
  | Pow2 p -> transform_pow2 p ~conjugate re im
  | Split { s_size = n; radix = r; sub; twre; twim; sre; sim } ->
      let m = n / r in
      (* Decimate: row s holds x_{r l + s}. *)
      for s = 0 to r - 1 do
        let rs = Array.unsafe_get sre s and is_ = Array.unsafe_get sim s in
        for l = 0 to m - 1 do
          let src = (r * l) + s in
          Array.unsafe_set rs l (Array.unsafe_get re src);
          Array.unsafe_set is_ l (Array.unsafe_get im src)
        done;
        transform_any sub ~conjugate rs is_
      done;
      (* Recombine X_{k + s' m} = sum_s w_n^{(k + s' m) s} Z_s[k] with a
         dedicated radix butterfly: the twiddles t_s = Z_s[k] w_n^{s k}
         cost (r - 1) complex multiplies per k, and the cross-output
         combination uses the real constants of the r-point DFT instead
         of r more table multiplies per output — this is what makes the
         mixed-radix grids competitive with power-of-two padding. *)
      let sign = if conjugate then -1.0 else 1.0 in
      (match r with
      | 3 ->
          let z0r = Array.unsafe_get sre 0 and z0i = Array.unsafe_get sim 0 in
          let z1r = Array.unsafe_get sre 1 and z1i = Array.unsafe_get sim 1 in
          let z2r = Array.unsafe_get sre 2 and z2i = Array.unsafe_get sim 2 in
          (* omega_3 = -1/2 - i sign sqrt(3)/2. *)
          let s3 = sign *. 0.8660254037844386 in
          for k = 0 to m - 1 do
            let w1r = Array.unsafe_get twre k
            and w1i = sign *. Array.unsafe_get twim k in
            let w2r = Array.unsafe_get twre (2 * k)
            and w2i = sign *. Array.unsafe_get twim (2 * k) in
            let a1r = Array.unsafe_get z1r k
            and a1i = Array.unsafe_get z1i k in
            let a2r = Array.unsafe_get z2r k
            and a2i = Array.unsafe_get z2i k in
            let t1r = (a1r *. w1r) -. (a1i *. w1i)
            and t1i = (a1r *. w1i) +. (a1i *. w1r) in
            let t2r = (a2r *. w2r) -. (a2i *. w2i)
            and t2i = (a2r *. w2i) +. (a2i *. w2r) in
            let ur = t1r +. t2r and ui = t1i +. t2i in
            let vr = t1r -. t2r and vi = t1i -. t2i in
            let br = Array.unsafe_get z0r k and bi = Array.unsafe_get z0i k in
            Array.unsafe_set re k (br +. ur);
            Array.unsafe_set im k (bi +. ui);
            let wr = br -. (0.5 *. ur) and wi = bi -. (0.5 *. ui) in
            Array.unsafe_set re (k + m) (wr +. (s3 *. vi));
            Array.unsafe_set im (k + m) (wi -. (s3 *. vr));
            Array.unsafe_set re (k + (2 * m)) (wr -. (s3 *. vi));
            Array.unsafe_set im (k + (2 * m)) (wi +. (s3 *. vr))
          done
      | 5 ->
          let z0r = Array.unsafe_get sre 0 and z0i = Array.unsafe_get sim 0 in
          let z1r = Array.unsafe_get sre 1 and z1i = Array.unsafe_get sim 1 in
          let z2r = Array.unsafe_get sre 2 and z2i = Array.unsafe_get sim 2 in
          let z3r = Array.unsafe_get sre 3 and z3i = Array.unsafe_get sim 3 in
          let z4r = Array.unsafe_get sre 4 and z4i = Array.unsafe_get sim 4 in
          (* omega_5^b = cb - i sign sb. *)
          let c1 = 0.30901699437494745 and c2 = -0.8090169943749473 in
          let s1 = sign *. 0.9510565162951535
          and s2 = sign *. 0.5877852522924731 in
          for k = 0 to m - 1 do
            let w1r = Array.unsafe_get twre k
            and w1i = sign *. Array.unsafe_get twim k in
            let w2r = Array.unsafe_get twre (2 * k)
            and w2i = sign *. Array.unsafe_get twim (2 * k) in
            let w3r = Array.unsafe_get twre (3 * k)
            and w3i = sign *. Array.unsafe_get twim (3 * k) in
            let w4r = Array.unsafe_get twre (4 * k)
            and w4i = sign *. Array.unsafe_get twim (4 * k) in
            let a1r = Array.unsafe_get z1r k
            and a1i = Array.unsafe_get z1i k in
            let a2r = Array.unsafe_get z2r k
            and a2i = Array.unsafe_get z2i k in
            let a3r = Array.unsafe_get z3r k
            and a3i = Array.unsafe_get z3i k in
            let a4r = Array.unsafe_get z4r k
            and a4i = Array.unsafe_get z4i k in
            let t1r = (a1r *. w1r) -. (a1i *. w1i)
            and t1i = (a1r *. w1i) +. (a1i *. w1r) in
            let t2r = (a2r *. w2r) -. (a2i *. w2i)
            and t2i = (a2r *. w2i) +. (a2i *. w2r) in
            let t3r = (a3r *. w3r) -. (a3i *. w3i)
            and t3i = (a3r *. w3i) +. (a3i *. w3r) in
            let t4r = (a4r *. w4r) -. (a4i *. w4i)
            and t4i = (a4r *. w4i) +. (a4i *. w4r) in
            let u1r = t1r +. t4r and u1i = t1i +. t4i in
            let v1r = t1r -. t4r and v1i = t1i -. t4i in
            let u2r = t2r +. t3r and u2i = t2i +. t3i in
            let v2r = t2r -. t3r and v2i = t2i -. t3i in
            let br = Array.unsafe_get z0r k and bi = Array.unsafe_get z0i k in
            Array.unsafe_set re k (br +. u1r +. u2r);
            Array.unsafe_set im k (bi +. u1i +. u2i);
            let p1r = br +. (c1 *. u1r) +. (c2 *. u2r)
            and p1i = bi +. (c1 *. u1i) +. (c2 *. u2i) in
            let q1r = (s1 *. v1r) +. (s2 *. v2r)
            and q1i = (s1 *. v1i) +. (s2 *. v2i) in
            Array.unsafe_set re (k + m) (p1r +. q1i);
            Array.unsafe_set im (k + m) (p1i -. q1r);
            Array.unsafe_set re (k + (4 * m)) (p1r -. q1i);
            Array.unsafe_set im (k + (4 * m)) (p1i +. q1r);
            let p2r = br +. (c2 *. u1r) +. (c1 *. u2r)
            and p2i = bi +. (c2 *. u1i) +. (c1 *. u2i) in
            let q2r = (s2 *. v1r) -. (s1 *. v2r)
            and q2i = (s2 *. v1i) -. (s1 *. v2i) in
            Array.unsafe_set re (k + (2 * m)) (p2r +. q2i);
            Array.unsafe_set im (k + (2 * m)) (p2i -. q2r);
            Array.unsafe_set re (k + (3 * m)) (p2r -. q2i);
            Array.unsafe_set im (k + (3 * m)) (p2i +. q2r)
          done
      | _ ->
          (* Unreached by [make_any_plan] (radices are 3 and 5); kept as
             the reference recombination for any future radix. *)
          for k = 0 to m - 1 do
            for block = 0 to r - 1 do
              let t = k + (block * m) in
              let accr = ref 0.0 and acci = ref 0.0 in
              for s = 0 to r - 1 do
                let idx = t * s mod n in
                let cr = Array.unsafe_get twre idx
                and ci = sign *. Array.unsafe_get twim idx in
                let zr = Array.unsafe_get (Array.unsafe_get sre s) k
                and zi = Array.unsafe_get (Array.unsafe_get sim s) k in
                accr := !accr +. ((zr *. cr) -. (zi *. ci));
                acci := !acci +. ((zr *. ci) +. (zi *. cr))
              done;
              Array.unsafe_set re t !accr;
              Array.unsafe_set im t !acci
            done
          done)
  | Bluestein { b_size = n; np; cre; cim; bre; bim; sre; sim } ->
      (* The inverse direction is conj . forward . conj (no scaling). *)
      if conjugate then
        for j = 0 to n - 1 do
          Array.unsafe_set im j (-.Array.unsafe_get im j)
        done;
      bluestein_forward ~n ~np ~cre ~cim ~bre ~bim ~sre ~sim re im;
      if conjugate then
        for j = 0 to n - 1 do
          Array.unsafe_set im j (-.Array.unsafe_get im j)
        done

let rec make_any_plan n =
  if n <= 0 then invalid_arg "Fft.make_any_plan: size must be positive";
  if is_power_of_two n then make_plan n
  else if n mod 3 = 0 && is_fast_size n then
    split_plan ~radix:3 n
  else if n mod 5 = 0 && is_fast_size n then
    split_plan ~radix:5 n
  else begin
    let ns = next_power_of_two ((2 * n) - 1) in
    let np = make_pow2_plan ns in
    let cre = Array.make n 1.0 and cim = Array.make n 0.0 in
    let two_n = 2 * n in
    for j = 0 to n - 1 do
      (* j^2 mod 2n keeps the angle small without changing the chirp. *)
      let q = j * j mod two_n in
      let ang = -.Float.pi *. float_of_int q /. float_of_int n in
      cre.(j) <- cos ang;
      cim.(j) <- sin ang
    done;
    let bre = Array.make ns 0.0 and bim = Array.make ns 0.0 in
    bre.(0) <- 1.0;
    for j = 1 to n - 1 do
      bre.(j) <- cre.(j);
      bim.(j) <- -.cim.(j);
      bre.(ns - j) <- cre.(j);
      bim.(ns - j) <- -.cim.(j)
    done;
    transform_pow2 np ~conjugate:false bre bim;
    Bluestein
      {
        b_size = n;
        np;
        cre;
        cim;
        bre;
        bim;
        sre = Array.make ns 0.0;
        sim = Array.make ns 0.0;
      }
  end

and split_plan ~radix n =
  let m = n / radix in
  let twre, twim = forward_twiddles n in
  Split
    {
      s_size = n;
      radix;
      sub = make_any_plan m;
      twre;
      twim;
      sre = Array.init radix (fun _ -> Array.make m 0.0);
      sim = Array.init radix (fun _ -> Array.make m 0.0);
    }

let size = function
  | Pow2 p -> p.p2_size
  | Split s -> s.s_size
  | Bluestein b -> b.b_size

let check_plan plan re im =
  let n = size plan in
  if Array.length re <> n || Array.length im <> n then
    invalid_arg "Fft: array length does not match the plan size"

let forward_ip plan ~re ~im =
  check_plan plan re im;
  transform_any plan ~conjugate:false re im

let inverse_ip plan ~re ~im =
  check_plan plan re im;
  transform_any plan ~conjugate:true re im;
  let n = size plan in
  let inv = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    Array.unsafe_set re i (Array.unsafe_get re i *. inv);
    Array.unsafe_set im i (Array.unsafe_get im i *. inv)
  done

let dft_naive ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then
    invalid_arg "Fft.dft_naive: re and im must have the same length";
  let out_re = Array.make n 0.0 and out_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for j = 0 to n - 1 do
      let ang =
        -2.0 *. Float.pi *. float_of_int k *. float_of_int j
        /. float_of_int n
      in
      let c = cos ang and s = sin ang in
      sr := !sr +. (re.(j) *. c) -. (im.(j) *. s);
      si := !si +. (re.(j) *. s) +. (im.(j) *. c)
    done;
    out_re.(k) <- !sr;
    out_im.(k) <- !si
  done;
  (out_re, out_im)

(* ------------------------------------------------------------------ *)
(* Real-input transforms.

   A real signal of even length n is packed into a complex signal of
   length h = n/2 (z_l = x_{2l} + i x_{2l+1}); one half-size complex
   transform plus an O(n) split pass yields the half-spectrum
   X_0 .. X_h, which by conjugate symmetry is the whole transform.  The
   split reads the even/odd sub-spectra out of Z by Hermitian symmetry:

     E_k = (Z_k + conj Z_{h-k}) / 2,  O_k = -i (Z_k - conj Z_{h-k}) / 2,
     X_k = E_k + exp(-2 i pi k / n) O_k.

   The inverse runs the same algebra backwards — W_k built from the
   half-spectrum feeds one half-size FORWARD transform whose output
   interleaves back into the signal — so forward and inverse share the
   complex core and the twiddle table t_k = exp(-2 i pi k / n). *)

module Real = struct
  type t = {
    n : int;
    h : int;
    sub : plan;  (* complex plan of size h *)
    ifac : float;  (* 1 / (2 h), preboxed so inverse calls stay alloc-free *)
    tre : float array;  (* cos (-2 pi k / n), k = 0 .. h *)
    tim : float array;
    pre : float array;  (* packed half-size scratch, length h *)
    pim : float array;
  }

  let m_real_plans_built = Lrd_obs.Obs.Counter.make "fft/real_plans_built"

  let make_plan n =
    if n < 2 || n land 1 = 1 || not (is_fast_size (n / 2)) then
      invalid_arg
        "Fft.Real.make_plan: size must be even with n/2 of the form \
         2^a*{1,3,5,15}";
    Lrd_obs.Obs.Counter.incr m_real_plans_built;
    if Lrd_obs.Obs.Trace.enabled () then
      Lrd_obs.Obs.Trace.instant ~arg:n "fft/real_plan_build";
    let h = n / 2 in
    let tre = Array.make (h + 1) 1.0 and tim = Array.make (h + 1) 0.0 in
    for k = 0 to h do
      let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int n in
      tre.(k) <- cos ang;
      tim.(k) <- sin ang
    done;
    {
      n;
      h;
      sub = make_any_plan h;
      ifac = 0.5 /. float_of_int h;
      tre;
      tim;
      pre = Array.make h 0.0;
      pim = Array.make h 0.0;
    }

  let size t = t.n
  let spectrum_length t = t.h + 1

  (* Per-domain plan memo: real plans own scratch, so unlike the
     power-of-two complex plans they cannot be shared across domains;
     a DLS-keyed table gives each domain its own. *)
  let m_cache_hits = Lrd_obs.Obs.Counter.make "fft/real_plan_cache_hits"
  let m_cache_misses = Lrd_obs.Obs.Counter.make "fft/real_plan_cache_misses"

  let domain_plans : (int, t) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)

  let cached_plan n =
    let table = Domain.DLS.get domain_plans in
    match Hashtbl.find_opt table n with
    | Some p ->
        Lrd_obs.Obs.Counter.incr m_cache_hits;
        p
    | None ->
        Lrd_obs.Obs.Counter.incr m_cache_misses;
        let p = make_plan n in
        Hashtbl.add table n p;
        p

  let check_spec t ~spec_re ~spec_im =
    if Array.length spec_re < t.h + 1 || Array.length spec_im < t.h + 1 then
      invalid_arg "Fft.Real: spectrum buffers shorter than n/2 + 1"

  (* Pack signal.(0 .. len-1), zero-extended to n, into pre/pim. *)
  let pack_float t signal len =
    let pre = t.pre and pim = t.pim in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Array.unsafe_set pre l (Array.unsafe_get signal (2 * l));
      Array.unsafe_set pim l (Array.unsafe_get signal ((2 * l) + 1))
    done;
    let next =
      if len land 1 = 1 then begin
        Array.unsafe_set pre pairs (Array.unsafe_get signal (len - 1));
        Array.unsafe_set pim pairs 0.0;
        pairs + 1
      end
      else pairs
    in
    Array.fill pre next (t.h - next) 0.0;
    Array.fill pim next (t.h - next) 0.0

  let pack_big t (signal : vec) len =
    let pre = t.pre and pim = t.pim in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Array.unsafe_set pre l (Bigarray.Array1.unsafe_get signal (2 * l));
      Array.unsafe_set pim l (Bigarray.Array1.unsafe_get signal ((2 * l) + 1))
    done;
    let next =
      if len land 1 = 1 then begin
        Array.unsafe_set pre pairs (Bigarray.Array1.unsafe_get signal (len - 1));
        Array.unsafe_set pim pairs 0.0;
        pairs + 1
      end
      else pairs
    in
    Array.fill pre next (t.h - next) 0.0;
    Array.fill pim next (t.h - next) 0.0

  (* Split the packed spectrum Z into the real half-spectrum.  The
     (k, h-k) pair shares one twiddle read: with P = t_k O_k,
     X_{h-k} = conj (E_k - P). *)
  let split_forward t ~spec_re ~spec_im =
    let h = t.h in
    let pre = t.pre and pim = t.pim in
    let zr0 = Array.unsafe_get pre 0 and zi0 = Array.unsafe_get pim 0 in
    Array.unsafe_set spec_re 0 (zr0 +. zi0);
    Array.unsafe_set spec_im 0 0.0;
    Array.unsafe_set spec_re h (zr0 -. zi0);
    Array.unsafe_set spec_im h 0.0;
    let tre = t.tre and tim = t.tim in
    let k = ref 1 in
    while 2 * !k < h do
      let kk = !k in
      let j = h - kk in
      let zrk = Array.unsafe_get pre kk and zik = Array.unsafe_get pim kk in
      let zrj = Array.unsafe_get pre j and zij = Array.unsafe_get pim j in
      let er = 0.5 *. (zrk +. zrj) and ei = 0.5 *. (zik -. zij) in
      let our = 0.5 *. (zik +. zij) and oui = 0.5 *. (zrj -. zrk) in
      let tr = Array.unsafe_get tre kk and ti = Array.unsafe_get tim kk in
      let pr = (our *. tr) -. (oui *. ti) in
      let pi = (our *. ti) +. (oui *. tr) in
      Array.unsafe_set spec_re kk (er +. pr);
      Array.unsafe_set spec_im kk (ei +. pi);
      Array.unsafe_set spec_re j (er -. pr);
      Array.unsafe_set spec_im j (pi -. ei);
      incr k
    done;
    if h land 1 = 0 && h >= 2 then begin
      let mid = h / 2 in
      Array.unsafe_set spec_re mid (Array.unsafe_get pre mid);
      Array.unsafe_set spec_im mid (-.Array.unsafe_get pim mid)
    end

  let forward_ip t ~signal ~len ~spec_re ~spec_im =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.forward_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.forward_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    pack_float t signal len;
    transform_any t.sub ~conjugate:false t.pre t.pim;
    split_forward t ~spec_re ~spec_im

  let forward_big t ~(signal : vec) ~len ~spec_re ~spec_im =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.forward_big: bad len";
    if Bigarray.Array1.dim signal < len then
      invalid_arg "Fft.Real.forward_big: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    pack_big t signal len;
    transform_any t.sub ~conjugate:false t.pre t.pim;
    split_forward t ~spec_re ~spec_im

  (* Load W_k = fac * (E2_k + i (D2_k conj t_k)) into pre/pim, where
     E2_k = X_k + conj X_{h-k} and D2_k = X_k - conj X_{h-k} (so E2/2
     and D2 conj t / 2 are the even/odd sub-spectra).  With fac =
     1/(2h) the following half-size CONJUGATE transform interleaves the
     normalized inverse; [conj] negates the imaginary reads, which with
     fac = 1 turns the same pass into the unnormalized synthesis
     y_j = sum_k X_k exp(-2 i pi j k / n) of a Hermitian spectrum. *)
  let load_w t ~spec_re ~spec_im ~conj ~fac =
    let h = t.h in
    let pre = t.pre and pim = t.pim in
    let tre = t.tre and tim = t.tim in
    let sign = if conj then -1.0 else 1.0 in
    for k = 0 to h - 1 do
      let j = h - k in
      let xrk = Array.unsafe_get spec_re k
      and xik = sign *. Array.unsafe_get spec_im k in
      let xrj = Array.unsafe_get spec_re j
      and xij = sign *. Array.unsafe_get spec_im j in
      let er = xrk +. xrj and ei = xik -. xij in
      let dr = xrk -. xrj and di = xik +. xij in
      let tr = Array.unsafe_get tre k and ti = Array.unsafe_get tim k in
      let our = (dr *. tr) +. (di *. ti) in
      let oui = (di *. tr) -. (dr *. ti) in
      Array.unsafe_set pre k (fac *. (er -. oui));
      Array.unsafe_set pim k (fac *. (ei +. our))
    done

  let unpack_float t signal len =
    let pre = t.pre and pim = t.pim in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Array.unsafe_set signal (2 * l) (Array.unsafe_get pre l);
      Array.unsafe_set signal ((2 * l) + 1) (Array.unsafe_get pim l)
    done;
    if len land 1 = 1 then
      Array.unsafe_set signal (len - 1) (Array.unsafe_get pre pairs)

  let unpack_big t (signal : vec) len =
    let pre = t.pre and pim = t.pim in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Bigarray.Array1.unsafe_set signal (2 * l) (Array.unsafe_get pre l);
      Bigarray.Array1.unsafe_set signal ((2 * l) + 1) (Array.unsafe_get pim l)
    done;
    if len land 1 = 1 then
      Bigarray.Array1.unsafe_set signal (len - 1) (Array.unsafe_get pre pairs)

  let inverse_ip t ~spec_re ~spec_im ~signal ~len =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.inverse_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.inverse_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    load_w t ~spec_re ~spec_im ~conj:false ~fac:t.ifac;
    transform_any t.sub ~conjugate:true t.pre t.pim;
    unpack_float t signal len

  let inverse_big t ~spec_re ~spec_im ~(signal : vec) ~len =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.inverse_big: bad len";
    if Bigarray.Array1.dim signal < len then
      invalid_arg "Fft.Real.inverse_big: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    load_w t ~spec_re ~spec_im ~conj:false ~fac:t.ifac;
    transform_any t.sub ~conjugate:true t.pre t.pim;
    unpack_big t signal len

  let synthesize_ip t ~spec_re ~spec_im ~signal ~len =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.synthesize_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.synthesize_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    load_w t ~spec_re ~spec_im ~conj:true ~fac:1.0;
    transform_any t.sub ~conjugate:true t.pre t.pim;
    unpack_float t signal len
end
