type t = {
  name : string;
  mean : float;
  variance : float;
  survival_gt : float -> float;
  survival_ge : float -> float;
  survival_integral : float -> float;
  survival_pair : float array -> ge:float array -> gt:float array -> unit;
  survival_integrals : float array -> dst:float array -> unit;
  max_support : float option;
  sample : Lrd_rng.Rng.t -> float;
}

(* The batch forms of a law with no faster route: its scalar functions,
   point by point. *)
let pointwise_pair survival_ge survival_gt q ~ge ~gt =
  for k = 0 to Array.length q - 1 do
    let x = q.(k) in
    ge.(k) <- survival_ge x;
    gt.(k) <- survival_gt x
  done

let pointwise_integrals survival_integral q ~dst =
  for k = 0 to Array.length q - 1 do
    dst.(k) <- survival_integral q.(k)
  done

let mean_given_cutoff ~theta ~alpha ~cutoff =
  if cutoff = Float.infinity then theta /. (alpha -. 1.0)
  else
    theta /. (alpha -. 1.0)
    *. (1.0 -. (((cutoff /. theta) +. 1.0) ** (1.0 -. alpha)))

let truncated_pareto ~theta ~alpha ~cutoff =
  if not (theta > 0.0) then
    invalid_arg "Interarrival.truncated_pareto: theta must be positive";
  if not (cutoff > 0.0) then
    invalid_arg "Interarrival.truncated_pareto: cutoff must be positive";
  let infinite = cutoff = Float.infinity in
  if infinite && not (alpha > 1.0) then
    invalid_arg
      "Interarrival.truncated_pareto: alpha must exceed 1 for an infinite \
       cutoff (finite mean)";
  if not (alpha > 0.0) then
    invalid_arg "Interarrival.truncated_pareto: alpha must be positive";
  (* Pareto ccdf before truncation. *)
  let ccdf t = ((t +. theta) /. theta) ** -.alpha in
  let survival_gt t =
    if t < 0.0 then 1.0 else if t >= cutoff then 0.0 else ccdf t
  in
  let survival_ge t =
    if t <= 0.0 then 1.0 else if t > cutoff then 0.0 else ccdf t
  in
  (* int_a^cutoff ((t+theta)/theta)^-alpha dt in closed form; the
     antiderivative is -(theta^alpha) (t+theta)^(1-alpha) / (alpha-1).
     Valid for alpha <> 1 (alpha = 1 only arises with a finite cutoff). *)
  let tail_integral a =
    let a = Float.max a 0.0 in
    if a >= cutoff then 0.0
    else if alpha = 1.0 then theta *. log ((cutoff +. theta) /. (a +. theta))
    else begin
      let power x = ((x +. theta) /. theta) ** (1.0 -. alpha) in
      let upper = if infinite then 0.0 else power cutoff in
      theta /. (alpha -. 1.0) *. (power a -. upper)
    end
  in
  let survival_integral a =
    if a <= 0.0 then tail_integral 0.0 +. Float.max 0.0 (-.a)
    else tail_integral a
  in
  let mean = tail_integral 0.0 in
  (* The batch forms repeat the scalar expressions term for term, so
     every value is bitwise the scalar one, but with the ccdf written
     inline: a call to a local closure would box its float result, and
     where both sides agree (inside the support) one [pow] serves both. *)
  let survival_pair q ~ge ~gt =
    for k = 0 to Array.length q - 1 do
      let t = q.(k) in
      if t <= 0.0 then begin
        ge.(k) <- 1.0;
        gt.(k) <-
          (if t < 0.0 then 1.0 else ((t +. theta) /. theta) ** -.alpha)
      end
      else if t >= cutoff then begin
        ge.(k) <-
          (if t > cutoff then 0.0 else ((t +. theta) /. theta) ** -.alpha);
        gt.(k) <- 0.0
      end
      else begin
        (* Also the NaN case, where both scalar sides reach the ccdf. *)
        let s = ((t +. theta) /. theta) ** -.alpha in
        ge.(k) <- s;
        gt.(k) <- s
      end
    done
  in
  let scale = theta /. (alpha -. 1.0) in
  let upper =
    if infinite then 0.0 else ((cutoff +. theta) /. theta) ** (1.0 -. alpha)
  in
  let survival_integrals q ~dst =
    for k = 0 to Array.length q - 1 do
      let a = q.(k) in
      dst.(k) <-
        (if a <= 0.0 then
           (* [mean] is [tail_integral 0.0]; the scalar clamp of [-.a]
              only turns [-0.0] into [0.0], which [mean > 0] absorbs. *)
           mean -. a
         else if a >= cutoff then 0.0
         else if alpha = 1.0 then
           theta *. log ((cutoff +. theta) /. (a +. theta))
         else scale *. ((((a +. theta) /. theta) ** (1.0 -. alpha)) -. upper))
    done
  in
  (* E[T^2] = 2 int_0^cutoff t ccdf(t) dt, finite atoms included. *)
  let second_moment =
    if infinite then
      if alpha > 2.0 then begin
        (* 2 theta^alpha int_theta^inf (s - theta) s^-alpha ds. *)
        let i1 = theta *. theta /. (alpha -. 2.0) in
        let i2 = theta *. theta /. (alpha -. 1.0) in
        2.0 *. (i1 -. i2)
      end
      else Float.infinity
    else begin
      (* Substitute s = t + theta over [theta, cutoff + theta]. *)
      let hi = cutoff +. theta in
      let pow_int p x =
        (* Antiderivative of s^p, with the log fallback at p = -1. *)
        if p = -1.0 then log x else (x ** (p +. 1.0)) /. (p +. 1.0)
      in
      let term p = pow_int p hi -. pow_int p theta in
      let integral =
        (theta ** alpha) *. (term (1.0 -. alpha) -. (theta *. term (-.alpha)))
      in
      2.0 *. integral
    end
  in
  let variance =
    if second_moment = Float.infinity then Float.infinity
    else second_moment -. (mean *. mean)
  in
  let sample rng =
    if infinite then Lrd_rng.Sampler.pareto rng ~theta ~alpha
    else Lrd_rng.Sampler.truncated_pareto rng ~theta ~alpha ~cutoff
  in
  {
    name =
      Printf.sprintf "truncated-pareto(theta=%g, alpha=%g, cutoff=%g)" theta
        alpha cutoff;
    mean;
    variance;
    survival_gt;
    survival_ge;
    survival_integral;
    survival_pair;
    survival_integrals;
    max_support = (if infinite then None else Some cutoff);
    sample;
  }

let exponential ~mean =
  if not (mean > 0.0) then
    invalid_arg "Interarrival.exponential: mean must be positive";
  let survival t = if t <= 0.0 then 1.0 else exp (-.t /. mean) in
  let survival_integral a =
    if a <= 0.0 then mean -. a else mean *. exp (-.a /. mean)
  in
  {
    name = Printf.sprintf "exponential(mean=%g)" mean;
    mean;
    variance = mean *. mean;
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = None;
    sample = (fun rng -> Lrd_rng.Sampler.exponential rng ~rate:(1.0 /. mean));
  }

let deterministic ~value =
  if not (value > 0.0) then
    invalid_arg "Interarrival.deterministic: value must be positive";
  let survival_gt t = if t < value then 1.0 else 0.0 in
  let survival_ge t = if t <= value then 1.0 else 0.0 in
  let survival_integral a =
    Float.max 0.0 (value -. Float.max a 0.0)
    +. Float.max 0.0 (-.Float.min a 0.0)
  in
  {
    name = Printf.sprintf "deterministic(%g)" value;
    mean = value;
    variance = 0.0;
    survival_gt;
    survival_ge;
    survival_integral;
    survival_pair = pointwise_pair survival_ge survival_gt;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = Some value;
    sample = (fun _ -> value);
  }

let uniform ~lo ~hi =
  if not (0.0 <= lo && lo < hi) then
    invalid_arg "Interarrival.uniform: need 0 <= lo < hi";
  let width = hi -. lo in
  let survival t =
    if t <= lo then 1.0 else if t >= hi then 0.0 else (hi -. t) /. width
  in
  let survival_integral a =
    if a >= hi then 0.0
    else if a >= lo then (hi -. a) *. (hi -. a) /. (2.0 *. width)
    else (lo -. a) +. (width /. 2.0)
  in
  {
    name = Printf.sprintf "uniform(%g, %g)" lo hi;
    mean = (lo +. hi) /. 2.0;
    variance = width *. width /. 12.0;
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = Some hi;
    sample = (fun rng -> Lrd_rng.Sampler.uniform rng ~lo ~hi);
  }

let weibull ~shape ~scale =
  if not (shape > 0.0 && scale > 0.0) then
    invalid_arg "Interarrival.weibull: parameters must be positive";
  let survival t = if t <= 0.0 then 1.0 else exp (-.((t /. scale) ** shape)) in
  let gamma_fn x = exp (Lrd_numerics.Special.log_gamma x) in
  let mean = scale *. gamma_fn (1.0 +. (1.0 /. shape)) in
  let second = scale *. scale *. gamma_fn (1.0 +. (2.0 /. shape)) in
  let survival_integral a =
    if a <= 0.0 then mean -. a
    else
      Lrd_numerics.Quadrature.simpson_to_infinity ~f:survival ~a ~eps:1e-12
  in
  {
    name = Printf.sprintf "weibull(shape=%g, scale=%g)" shape scale;
    mean;
    variance = second -. (mean *. mean);
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = None;
    sample =
      (fun rng ->
        let u = Lrd_rng.Rng.float_pos rng in
        scale *. ((-.log u) ** (1.0 /. shape)));
  }

let gamma ~shape ~scale =
  if not (shape > 0.0 && scale > 0.0) then
    invalid_arg "Interarrival.gamma: parameters must be positive";
  let survival t =
    if t <= 0.0 then 1.0
    else Lrd_numerics.Special.gamma_q ~a:shape ~x:(t /. scale)
  in
  let mean = shape *. scale in
  (* E[(T - a)^+] = mean Q(shape+1, a/scale) - a Q(shape, a/scale). *)
  let survival_integral a =
    if a <= 0.0 then mean -. a
    else
      (mean *. Lrd_numerics.Special.gamma_q ~a:(shape +. 1.0) ~x:(a /. scale))
      -. (a *. Lrd_numerics.Special.gamma_q ~a:shape ~x:(a /. scale))
  in
  {
    name = Printf.sprintf "gamma(shape=%g, scale=%g)" shape scale;
    mean;
    variance = shape *. scale *. scale;
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = None;
    sample = (fun rng -> Lrd_rng.Sampler.gamma rng ~shape ~scale);
  }

let lognormal ~mu ~sigma =
  if not (sigma > 0.0) then
    invalid_arg "Interarrival.lognormal: sigma must be positive";
  let mean = exp (mu +. (sigma *. sigma /. 2.0)) in
  let variance = (exp (sigma *. sigma) -. 1.0) *. mean *. mean in
  let survival t =
    if t <= 0.0 then 1.0
    else 1.0 -. Lrd_numerics.Special.normal_cdf ((log t -. mu) /. sigma)
  in
  (* E[(T - a)^+] = mean Phi(sigma - d) - a (1 - Phi(d)),
     d = (ln a - mu) / sigma. *)
  let survival_integral a =
    if a <= 0.0 then mean -. a
    else begin
      let d = (log a -. mu) /. sigma in
      (mean *. Lrd_numerics.Special.normal_cdf (sigma -. d))
      -. (a *. (1.0 -. Lrd_numerics.Special.normal_cdf d))
    end
  in
  {
    name = Printf.sprintf "lognormal(mu=%g, sigma=%g)" mu sigma;
    mean;
    variance;
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = None;
    sample = (fun rng -> Lrd_rng.Sampler.lognormal rng ~mu ~sigma);
  }

let hyperexponential ~weights ~means =
  let k = Array.length weights in
  if k = 0 then invalid_arg "Interarrival.hyperexponential: empty mixture";
  if Array.length means <> k then
    invalid_arg "Interarrival.hyperexponential: mismatched lengths";
  Array.iter
    (fun m ->
      if not (m > 0.0) then
        invalid_arg "Interarrival.hyperexponential: means must be positive")
    means;
  Array.iter
    (fun w ->
      if not (w >= 0.0 && Float.is_finite w) then
        invalid_arg "Interarrival.hyperexponential: invalid weight")
    weights;
  let total = Lrd_numerics.Summation.kahan weights in
  if not (total > 0.0) then
    invalid_arg "Interarrival.hyperexponential: weights sum to zero";
  let w = Array.map (fun v -> v /. total) weights in
  let mix f =
    let acc = Lrd_numerics.Summation.create () in
    Array.iteri (fun i p -> Lrd_numerics.Summation.add acc (p *. f means.(i))) w;
    Lrd_numerics.Summation.total acc
  in
  let mean = mix Fun.id in
  let second = mix (fun m -> 2.0 *. m *. m) in
  let survival t =
    if t <= 0.0 then 1.0 else mix (fun m -> exp (-.t /. m))
  in
  let survival_integral a =
    if a <= 0.0 then mean -. a else mix (fun m -> m *. exp (-.a /. m))
  in
  let table = Lrd_rng.Sampler.discrete_of_weights w in
  {
    name = Printf.sprintf "hyperexponential(%d phases, mean=%g)" k mean;
    mean;
    variance = second -. (mean *. mean);
    survival_gt = survival;
    survival_ge = survival;
    survival_integral;
    survival_pair = pointwise_pair survival survival;
    survival_integrals = pointwise_integrals survival_integral;
    max_support = None;
    sample =
      (fun rng ->
        let phase = Lrd_rng.Sampler.discrete_draw rng table in
        Lrd_rng.Sampler.exponential rng ~rate:(1.0 /. means.(phase)));
  }

let theta_for_mean_epoch ~mean_epoch ~alpha ?(cutoff = Float.infinity) () =
  if not (mean_epoch > 0.0) then
    invalid_arg "Interarrival.theta_for_mean_epoch: mean must be positive";
  if not (alpha > 1.0) then
    invalid_arg "Interarrival.theta_for_mean_epoch: alpha must exceed 1";
  if cutoff = Float.infinity then mean_epoch *. (alpha -. 1.0)
  else if mean_epoch >= cutoff then
    (* T = min(Pareto, cutoff) <= cutoff, so E[T] < cutoff always. *)
    invalid_arg
      "Interarrival.theta_for_mean_epoch: mean epoch must be below the \
       cutoff"
  else begin
    (* The truncated mean is increasing in theta, from 0 toward [cutoff],
       and truncation only lowers the mean, so the infinite-cutoff theta
       is a lower bracket endpoint; walk the upper endpoint up. *)
    let f theta = mean_given_cutoff ~theta ~alpha ~cutoff -. mean_epoch in
    let lo = mean_epoch *. (alpha -. 1.0) in
    let hi = ref (Float.max lo cutoff) in
    while f !hi < 0.0 do
      hi := !hi *. 2.0
    done;
    Lrd_numerics.Roots.bisection ~f ~lo ~hi:!hi ()
  end
