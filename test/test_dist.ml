open Lrd_dist

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Interarrival: truncated Pareto *)

let tp = Interarrival.truncated_pareto

let test_tp_mean_formula () =
  (* Eq. 25 against direct numerical integration of the survival. *)
  let law = tp ~theta:0.5 ~alpha:1.4 ~cutoff:10.0 in
  let numeric =
    Lrd_numerics.Quadrature.simpson ~f:law.Interarrival.survival_gt ~a:0.0
      ~b:10.0 ~eps:1e-12
  in
  check_close ~eps:1e-8 "mean vs integral" numeric law.Interarrival.mean;
  check_close ~eps:1e-12 "eq. 25"
    (Interarrival.mean_given_cutoff ~theta:0.5 ~alpha:1.4 ~cutoff:10.0)
    law.Interarrival.mean

let test_tp_infinite_cutoff_mean () =
  let law = tp ~theta:2.0 ~alpha:1.5 ~cutoff:Float.infinity in
  check_close "theta/(alpha-1)" 4.0 law.Interarrival.mean

let test_tp_survival_atom () =
  let cutoff = 5.0 in
  let law = tp ~theta:1.0 ~alpha:1.3 ~cutoff in
  let atom = ((cutoff +. 1.0) /. 1.0) ** -1.3 in
  (* Strictly beyond the cutoff there is nothing; at the cutoff the weak
     survival carries the atom. *)
  check_close "gt at cutoff" 0.0 (law.Interarrival.survival_gt cutoff);
  check_close "ge at cutoff" atom (law.Interarrival.survival_ge cutoff);
  check_close "ge just after" 0.0 (law.Interarrival.survival_ge (cutoff +. 1e-9));
  check_close "gt at 0" 1.0 (law.Interarrival.survival_gt (-1e-9));
  check_close "ge at 0" 1.0 (law.Interarrival.survival_ge 0.0)

let test_tp_survival_integral_matches_quadrature () =
  let law = tp ~theta:0.8 ~alpha:1.6 ~cutoff:7.0 in
  List.iter
    (fun a ->
      let numeric =
        Lrd_numerics.Quadrature.simpson ~f:law.Interarrival.survival_gt ~a
          ~b:7.0 ~eps:1e-12
      in
      check_close ~eps:1e-8
        (Printf.sprintf "integral from %g" a)
        numeric
        (law.Interarrival.survival_integral a))
    [ 0.0; 0.5; 2.0; 6.9; 7.0; 8.0 ]

let test_tp_variance_matches_monte_carlo () =
  let law = tp ~theta:1.0 ~alpha:1.7 ~cutoff:4.0 in
  let rng = Lrd_rng.Rng.create ~seed:42L in
  let xs = Array.init 400_000 (fun _ -> law.Interarrival.sample rng) in
  check_close ~eps:2e-2 "mean" (Lrd_numerics.Array_ops.mean xs)
    law.Interarrival.mean;
  check_close ~eps:5e-2 "variance" (Lrd_numerics.Array_ops.variance xs)
    law.Interarrival.variance

let test_tp_infinite_variance_when_alpha_below_2 () =
  let law = tp ~theta:1.0 ~alpha:1.5 ~cutoff:Float.infinity in
  Alcotest.(check bool) "infinite" true
    (law.Interarrival.variance = Float.infinity)

let test_tp_rejects_bad_params () =
  Alcotest.check_raises "theta"
    (Invalid_argument "Interarrival.truncated_pareto: theta must be positive")
    (fun () -> ignore (tp ~theta:0.0 ~alpha:1.5 ~cutoff:1.0));
  Alcotest.check_raises "alpha at infinite cutoff"
    (Invalid_argument
       "Interarrival.truncated_pareto: alpha must exceed 1 for an infinite \
        cutoff (finite mean)") (fun () ->
      ignore (tp ~theta:1.0 ~alpha:0.9 ~cutoff:Float.infinity))

let test_theta_matching_infinite () =
  let theta =
    Interarrival.theta_for_mean_epoch ~mean_epoch:0.08 ~alpha:1.34 ()
  in
  check_close ~eps:1e-12 "closed form" (0.08 *. 0.34) theta

let test_theta_matching_finite_cutoff () =
  let cutoff = 2.0 and mean_epoch = 0.5 and alpha = 1.3 in
  let theta =
    Interarrival.theta_for_mean_epoch ~mean_epoch ~alpha ~cutoff ()
  in
  check_close ~eps:1e-9 "achieves mean" mean_epoch
    (Interarrival.mean_given_cutoff ~theta ~alpha ~cutoff)

let test_theta_matching_unreachable () =
  Alcotest.check_raises "mean above cutoff"
    (Invalid_argument
       "Interarrival.theta_for_mean_epoch: mean epoch must be below the \
        cutoff") (fun () ->
      ignore
        (Interarrival.theta_for_mean_epoch ~mean_epoch:3.0 ~alpha:1.5
           ~cutoff:2.0 ()))

(* ------------------------------------------------------------------ *)
(* Interarrival: other laws *)

let test_exponential_survival_integral () =
  let law = Interarrival.exponential ~mean:2.0 in
  check_close "at 0" 2.0 (law.Interarrival.survival_integral 0.0);
  check_close ~eps:1e-12 "at 3" (2.0 *. exp (-1.5))
    (law.Interarrival.survival_integral 3.0);
  check_close "mean" 2.0 law.Interarrival.mean;
  check_close "variance" 4.0 law.Interarrival.variance

let test_deterministic_law () =
  let law = Interarrival.deterministic ~value:1.5 in
  check_close "mean" 1.5 law.Interarrival.mean;
  check_close "variance" 0.0 law.Interarrival.variance;
  check_close "gt below" 1.0 (law.Interarrival.survival_gt 1.0);
  check_close "gt above" 0.0 (law.Interarrival.survival_gt 1.5);
  check_close "ge at" 1.0 (law.Interarrival.survival_ge 1.5);
  check_close "integral 0" 1.5 (law.Interarrival.survival_integral 0.0);
  check_close "integral 1" 0.5 (law.Interarrival.survival_integral 1.0);
  check_close "integral 2" 0.0 (law.Interarrival.survival_integral 2.0)

let test_uniform_law () =
  let law = Interarrival.uniform ~lo:1.0 ~hi:3.0 in
  check_close "mean" 2.0 law.Interarrival.mean;
  check_close "variance" (4.0 /. 12.0) law.Interarrival.variance;
  check_close "gt mid" 0.5 (law.Interarrival.survival_gt 2.0);
  check_close "integral mid" 0.25 (law.Interarrival.survival_integral 2.0);
  check_close "integral 0" 2.0 (law.Interarrival.survival_integral 0.0)

let test_weibull_law () =
  let law = Interarrival.weibull ~shape:1.0 ~scale:2.0 in
  (* shape = 1 degenerates to exponential(mean = 2). *)
  check_close ~eps:1e-10 "mean" 2.0 law.Interarrival.mean;
  check_close ~eps:1e-9 "variance" 4.0 law.Interarrival.variance;
  check_close ~eps:1e-7 "integral" (2.0 *. exp (-0.5))
    (law.Interarrival.survival_integral 1.0)

let test_gamma_law_shape_one_is_exponential () =
  let g = Interarrival.gamma ~shape:1.0 ~scale:2.0 in
  let e = Interarrival.exponential ~mean:2.0 in
  List.iter
    (fun t ->
      check_close ~eps:1e-10 "survival"
        (e.Interarrival.survival_gt t)
        (g.Interarrival.survival_gt t);
      check_close ~eps:1e-10 "integral"
        (e.Interarrival.survival_integral t)
        (g.Interarrival.survival_integral t))
    [ 0.0; 0.5; 1.0; 3.0; 10.0 ]

let test_gamma_law_integral_vs_quadrature () =
  let g = Interarrival.gamma ~shape:2.5 ~scale:0.8 in
  List.iter
    (fun a ->
      let numeric =
        Lrd_numerics.Quadrature.simpson_to_infinity
          ~f:g.Interarrival.survival_gt ~a ~eps:1e-11
      in
      check_close ~eps:1e-6
        (Printf.sprintf "integral from %g" a)
        numeric
        (g.Interarrival.survival_integral a))
    [ 0.0; 0.5; 2.0; 5.0 ];
  check_close "mean" 2.0 g.Interarrival.mean;
  check_close "variance" 1.6 g.Interarrival.variance

let test_lognormal_law_integral_vs_quadrature () =
  let l = Interarrival.lognormal ~mu:0.1 ~sigma:0.7 in
  List.iter
    (fun a ->
      let numeric =
        Lrd_numerics.Quadrature.simpson_to_infinity
          ~f:l.Interarrival.survival_gt ~a ~eps:1e-11
      in
      check_close ~eps:1e-5
        (Printf.sprintf "integral from %g" a)
        numeric
        (l.Interarrival.survival_integral a))
    [ 0.0; 0.5; 1.5; 4.0 ]

let test_lognormal_law_moments_monte_carlo () =
  let l = Interarrival.lognormal ~mu:0.2 ~sigma:0.5 in
  let rng = Lrd_rng.Rng.create ~seed:9L in
  let xs = Array.init 300_000 (fun _ -> l.Interarrival.sample rng) in
  check_close ~eps:1e-2 "mean" l.Interarrival.mean
    (Lrd_numerics.Array_ops.mean xs);
  check_close ~eps:5e-2 "variance" l.Interarrival.variance
    (Lrd_numerics.Array_ops.variance xs)

let test_hyperexponential_law () =
  let law =
    Interarrival.hyperexponential ~weights:[| 0.5; 0.5 |] ~means:[| 1.0; 3.0 |]
  in
  check_close "mean" 2.0 law.Interarrival.mean;
  (* E[T^2] = 0.5 (2 * 1) + 0.5 (2 * 9) = 10; Var = 6. *)
  check_close "variance" 6.0 law.Interarrival.variance;
  check_close ~eps:1e-12 "survival"
    ((0.5 *. exp (-2.0)) +. (0.5 *. exp (-2.0 /. 3.0)))
    (law.Interarrival.survival_gt 2.0);
  check_close ~eps:1e-12 "integral"
    ((0.5 *. exp (-2.0)) +. (1.5 *. exp (-2.0 /. 3.0)))
    (law.Interarrival.survival_integral 2.0);
  (* Degenerate single phase = exponential. *)
  let single =
    Interarrival.hyperexponential ~weights:[| 2.0 |] ~means:[| 1.5 |]
  in
  let e = Interarrival.exponential ~mean:1.5 in
  check_close "single phase" (e.Interarrival.survival_gt 0.7)
    (single.Interarrival.survival_gt 0.7)

let test_hyperexponential_monte_carlo () =
  let law =
    Interarrival.hyperexponential ~weights:[| 0.7; 0.3 |]
      ~means:[| 0.2; 5.0 |]
  in
  let rng = Lrd_rng.Rng.create ~seed:77L in
  let xs = Array.init 300_000 (fun _ -> law.Interarrival.sample rng) in
  check_close ~eps:2e-2 "mean" law.Interarrival.mean
    (Lrd_numerics.Array_ops.mean xs);
  check_close ~eps:5e-2 "variance" law.Interarrival.variance
    (Lrd_numerics.Array_ops.variance xs)

let test_weibull_moments_monte_carlo () =
  let law = Interarrival.weibull ~shape:2.0 ~scale:1.0 in
  let rng = Lrd_rng.Rng.create ~seed:5L in
  let xs = Array.init 200_000 (fun _ -> law.Interarrival.sample rng) in
  check_close ~eps:1e-2 "mean" law.Interarrival.mean
    (Lrd_numerics.Array_ops.mean xs);
  check_close ~eps:3e-2 "variance" law.Interarrival.variance
    (Lrd_numerics.Array_ops.variance xs)

(* ------------------------------------------------------------------ *)
(* Marginal *)

let two_point = Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ]

let test_marginal_basic_stats () =
  check_close "mean" 1.0 (Marginal.mean two_point);
  check_close "variance" 1.0 (Marginal.variance two_point);
  check_close "std" 1.0 (Marginal.std two_point);
  Alcotest.(check int) "size" 2 (Marginal.size two_point);
  let lo, hi = Marginal.support two_point in
  check_close "lo" 0.0 lo;
  check_close "hi" 2.0 hi;
  check_close "peak/mean" 2.0 (Marginal.peak_to_mean two_point)

let test_marginal_sorts_and_merges () =
  let m = Marginal.of_points [ (3.0, 1.0); (1.0, 2.0); (3.0, 1.0) ] in
  Alcotest.(check int) "merged" 2 (Marginal.size m);
  let rates = Marginal.rates m and probs = Marginal.probs m in
  check_close "sorted first" 1.0 rates.(0);
  check_close "sorted second" 3.0 rates.(1);
  check_close "merged prob" 0.5 probs.(0);
  check_close "merged prob 2" 0.5 probs.(1)

let test_marginal_drops_zero_weight () =
  let m = Marginal.of_points [ (1.0, 1.0); (5.0, 0.0) ] in
  Alcotest.(check int) "size" 1 (Marginal.size m)

let test_marginal_normalizes () =
  let m = Marginal.of_points [ (1.0, 2.0); (2.0, 6.0) ] in
  let probs = Marginal.probs m in
  check_close "p0" 0.25 probs.(0);
  check_close "p1" 0.75 probs.(1)

let test_marginal_cdf_quantile () =
  let m = Marginal.of_points [ (1.0, 0.2); (2.0, 0.3); (4.0, 0.5) ] in
  check_close "cdf below" 0.0 (Marginal.cdf m 0.5);
  check_close "cdf 1" 0.2 (Marginal.cdf m 1.0);
  check_close "cdf 3" 0.5 (Marginal.cdf m 3.0);
  check_close "cdf top" 1.0 (Marginal.cdf m 4.0);
  check_close "quantile 0.1" 1.0 (Marginal.quantile m 0.1);
  check_close "quantile 0.5" 2.0 (Marginal.quantile m 0.5);
  check_close "quantile 0.51" 4.0 (Marginal.quantile m 0.51);
  check_close "quantile 1" 4.0 (Marginal.quantile m 1.0)

let test_marginal_scale_preserves_mean () =
  let m = Marginal.of_points [ (2.0, 0.25); (6.0, 0.5); (10.0, 0.25) ] in
  let s = Marginal.scale m ~factor:0.5 in
  check_close "mean" (Marginal.mean m) (Marginal.mean s);
  check_close "std halves" (Marginal.std m /. 2.0) (Marginal.std s);
  let widened = Marginal.scale m ~factor:1.5 in
  check_close "std widens" (Marginal.std m *. 1.5) (Marginal.std widened)

let test_marginal_scale_clamp () =
  let m = Marginal.of_points [ (0.0, 0.5); (10.0, 0.5) ] in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Marginal.scale: scaling produced a negative rate")
    (fun () -> ignore (Marginal.scale m ~factor:1.5));
  let clamped = Marginal.scale ~clamp:true m ~factor:1.5 in
  let lo, _ = Marginal.support clamped in
  Alcotest.(check bool) "clamped at zero" true (lo >= 0.0)

let test_marginal_superpose_mean_preserved () =
  let m = Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let s = Marginal.superpose m ~n:4 in
  check_close ~eps:1e-9 "mean preserved" (Marginal.mean m) (Marginal.mean s);
  (* Variance of the renormalized sum shrinks by 1/n. *)
  check_close ~eps:1e-9 "variance / n" (Marginal.variance m /. 4.0)
    (Marginal.variance s)

let test_marginal_superpose_two_point_exact () =
  (* Superposing 2 on/off streams gives a binomial(2, 1/2) at rates
     0, 1, 2. *)
  let m = Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let s = Marginal.superpose m ~n:2 in
  Alcotest.(check int) "atoms" 3 (Marginal.size s);
  let probs = Marginal.probs s in
  check_close "p 0" 0.25 probs.(0);
  check_close "p mid" 0.5 probs.(1);
  check_close "p top" 0.25 probs.(2)

let test_marginal_add_heterogeneous () =
  let a = Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let b = Marginal.of_points [ (1.0, 0.25); (3.0, 0.75) ] in
  let s = Marginal.add a b in
  (* Means add; variances add (independence). *)
  check_close ~eps:1e-9 "mean" (Marginal.mean a +. Marginal.mean b)
    (Marginal.mean s);
  check_close ~eps:1e-9 "variance"
    (Marginal.variance a +. Marginal.variance b)
    (Marginal.variance s);
  (* Exact atoms for this small case: 1, 3, 3, 5 with probs
     .125, .375, .125, .375 -> merged 3 has .5. *)
  Alcotest.(check int) "atoms" 3 (Marginal.size s);
  check_close "p(3)" 0.5 (Marginal.probs s).(1)

let test_marginal_rebin_preserves_mean () =
  let rng = Lrd_rng.Rng.create ~seed:3L in
  let points =
    List.init 300 (fun _ ->
        (Lrd_rng.Rng.float rng *. 10.0, Lrd_rng.Rng.float rng +. 0.01))
  in
  let m = Marginal.of_points points in
  let r = Marginal.rebin m ~bins:20 in
  Alcotest.(check bool) "at most 20" true (Marginal.size r <= 20);
  check_close ~eps:1e-12 "mean preserved" (Marginal.mean m) (Marginal.mean r)

let test_marginal_sampler_matches () =
  let m = Marginal.of_points [ (1.0, 0.25); (2.0, 0.75) ] in
  let draw = Marginal.sampler m in
  let rng = Lrd_rng.Rng.create ~seed:12L in
  let n = 100_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if draw rng = 1.0 then incr ones
  done;
  check_close ~eps:0.02 "frequency" 0.25 (float_of_int !ones /. float_of_int n)

let test_marginal_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Marginal.create: empty support") (fun () ->
      ignore (Marginal.create ~rates:[||] ~probs:[||]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Marginal.create: rates and probs must have equal lengths")
    (fun () -> ignore (Marginal.create ~rates:[| 1.0 |] ~probs:[| 0.5; 0.5 |]));
  Alcotest.check_raises "negative prob"
    (Invalid_argument "Marginal.create: probabilities must be nonnegative")
    (fun () -> ignore (Marginal.create ~rates:[| 1.0 |] ~probs:[| -0.5 |]))

(* ------------------------------------------------------------------ *)
(* Continuous *)

let test_gamma_cdf_quantile_roundtrip () =
  let g = Continuous.gamma ~shape:3.0 ~scale:2.0 in
  List.iter
    (fun p ->
      check_close ~eps:1e-8 "roundtrip" p
        (g.Continuous.cdf (g.Continuous.quantile p)))
    [ 0.001; 0.1; 0.5; 0.9; 0.999 ]

let test_gamma_of_mean_cv () =
  let g = Continuous.gamma_of_mean_cv ~mean:9.5 ~cv:0.18 in
  check_close ~eps:1e-10 "mean" 9.5 g.Continuous.mean;
  check_close ~eps:1e-10 "cv" 0.18 (sqrt g.Continuous.variance /. 9.5)

let test_lognormal_of_mean_cv () =
  let l = Continuous.lognormal_of_mean_cv ~mean:2.0 ~cv:1.5 in
  check_close ~eps:1e-10 "mean" 2.0 l.Continuous.mean;
  check_close ~eps:1e-10 "cv" 1.5 (sqrt l.Continuous.variance /. 2.0)

let test_normal_continuous () =
  let n = Continuous.normal ~mean:1.0 ~std:2.0 in
  check_close ~eps:1e-10 "median" 1.0 (n.Continuous.quantile 0.5);
  check_close ~eps:1e-9 "cdf" 0.5 (n.Continuous.cdf 1.0)

(* ------------------------------------------------------------------ *)
(* Properties *)

let marginal_gen =
  (* Random small marginal with positive weights. *)
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair (float_range 0.0 50.0) (float_range 0.01 5.0)))

let prop_scale_preserves_mean =
  QCheck.Test.make ~name:"scale preserves the mean" ~count:100
    (QCheck.make marginal_gen) (fun points ->
      let m = Marginal.of_points points in
      let s = Marginal.scale m ~factor:0.7 in
      Float.abs (Marginal.mean m -. Marginal.mean s)
      <= 1e-9 *. (1.0 +. Marginal.mean m))

let prop_superpose_shrinks_variance =
  QCheck.Test.make ~name:"superposition shrinks variance by ~1/n" ~count:40
    (QCheck.make QCheck.Gen.(pair marginal_gen (int_range 2 5)))
    (fun (points, n) ->
      let m = Marginal.of_points points in
      let s = Marginal.superpose m ~n in
      let expected = Marginal.variance m /. float_of_int n in
      (* Re-binning introduces a small aggregation error. *)
      Float.abs (Marginal.variance s -. expected)
      <= 0.05 *. (expected +. 1e-9))

let prop_quantile_inverts_cdf =
  QCheck.Test.make ~name:"quantile is a generalized inverse of cdf" ~count:100
    (QCheck.make QCheck.Gen.(pair marginal_gen (float_range 0.01 1.0)))
    (fun (points, p) ->
      let m = Marginal.of_points points in
      let q = Marginal.quantile m p in
      Marginal.cdf m q >= p -. 1e-9)

let prop_tp_survival_monotone =
  QCheck.Test.make ~name:"truncated pareto survival is nonincreasing"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.1 5.0) (float_range 1.05 3.0)
           (float_range 0.5 20.0)))
    (fun (theta, alpha, cutoff) ->
      let law = tp ~theta ~alpha ~cutoff in
      let ts = Lrd_numerics.Array_ops.linspace (-1.0) (cutoff +. 1.0) 50 in
      let ok = ref true in
      for i = 1 to 49 do
        if
          law.Interarrival.survival_gt ts.(i)
          > law.Interarrival.survival_gt ts.(i - 1) +. 1e-12
        then ok := false
      done;
      !ok)

(* The batch forms must be the scalar functions bitwise, for every
   constructor.  Each law comes with its support edges (cutoff, atom,
   interval ends), probed exactly and one ulp either side, plus
   negative, signed-zero, tiny and huge points, NaN where the scalar
   functions terminate on it, and random points. *)
let law_gen =
  QCheck.Gen.(
    map
      (fun (i, (u1, u2, u3)) ->
        let cutoff = 0.1 +. (u3 *. 50.0) in
        let theta = 0.01 +. u1 in
        match i with
        | 0 -> (tp ~theta ~alpha:(0.5 +. (2.5 *. u2)) ~cutoff, [ cutoff ], true)
        | 1 -> (tp ~theta ~alpha:1.0 ~cutoff, [ cutoff ], true)
        | 2 ->
            ( tp ~theta ~alpha:(1.05 +. (2.0 *. u2)) ~cutoff:Float.infinity,
              [ Float.infinity ],
              true )
        | 3 -> (Interarrival.exponential ~mean:(0.01 +. u1), [], true)
        | 4 -> (Interarrival.deterministic ~value:cutoff, [ cutoff ], true)
        | 5 ->
            let lo = u1 *. 2.0 in
            let hi = lo +. 0.1 +. u2 in
            (Interarrival.uniform ~lo ~hi, [ lo; hi ], true)
        | 6 ->
            (* Its survival integral is an adaptive quadrature, which
               never settles on NaN. *)
            ( Interarrival.weibull ~shape:(0.3 +. u1) ~scale:(0.1 +. u2),
              [],
              false )
        | 7 ->
            ( Interarrival.gamma ~shape:(0.3 +. (3.0 *. u1)) ~scale:(0.1 +. u2),
              [],
              true )
        | 8 ->
            ( Interarrival.lognormal ~mu:(u1 -. 0.5) ~sigma:(0.2 +. u2),
              [],
              true )
        | _ ->
            ( Interarrival.hyperexponential ~weights:[| u1 +. 0.01; 1.0 |]
                ~means:[| 0.05 +. u2; 1.0 +. (10.0 *. u3) |],
              [],
              true ))
      (pair (int_range 0 9)
         (triple (float_range 0.0 1.0) (float_range 0.0 1.0)
            (float_range 0.0 1.0))))

let prop_batch_forms_bitwise =
  QCheck.Test.make ~name:"law batch forms equal the scalar functions bitwise"
    ~count:200
    (QCheck.make
       ~print:(fun ((law, _, _), xs) ->
         Printf.sprintf "%s at %s" law.Interarrival.name
           (String.concat ", " (List.map (Printf.sprintf "%h") xs)))
       QCheck.Gen.(
         pair law_gen (list_size (int_range 0 20) (float_range (-5.0) 60.0))))
    (fun ((law, edges, probe_nan), random) ->
      let near x = [ Float.pred x; x; Float.succ x ] in
      let q =
        Array.of_list
          ([ -5.0; -1.0; -1e-300; -0.0; 0.0; 1e-300; 1e300 ]
          @ (if probe_nan then [ Float.nan ] else [])
          @ List.concat_map near edges
          @ random)
      in
      let n = Array.length q in
      let ge = Array.make n 0.0 and gt = Array.make n 0.0 in
      let integral = Array.make n 0.0 in
      law.Interarrival.survival_pair q ~ge ~gt;
      law.Interarrival.survival_integrals q ~dst:integral;
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let ok = ref true in
      Array.iteri
        (fun k x ->
          if
            not
              (same ge.(k) (law.Interarrival.survival_ge x)
              && same gt.(k) (law.Interarrival.survival_gt x)
              && same integral.(k) (law.Interarrival.survival_integral x))
          then ok := false)
        q;
      !ok)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "dist"
    [
      ( "truncated-pareto",
        [
          Alcotest.test_case "mean formula (eq. 25)" `Quick
            test_tp_mean_formula;
          Alcotest.test_case "infinite-cutoff mean" `Quick
            test_tp_infinite_cutoff_mean;
          Alcotest.test_case "survival atom at cutoff" `Quick
            test_tp_survival_atom;
          Alcotest.test_case "survival integral vs quadrature" `Quick
            test_tp_survival_integral_matches_quadrature;
          Alcotest.test_case "variance vs Monte Carlo" `Quick
            test_tp_variance_matches_monte_carlo;
          Alcotest.test_case "infinite variance below alpha 2" `Quick
            test_tp_infinite_variance_when_alpha_below_2;
          Alcotest.test_case "rejects bad params" `Quick
            test_tp_rejects_bad_params;
          Alcotest.test_case "theta matching, infinite cutoff" `Quick
            test_theta_matching_infinite;
          Alcotest.test_case "theta matching, finite cutoff" `Quick
            test_theta_matching_finite_cutoff;
          Alcotest.test_case "theta matching, unreachable mean" `Quick
            test_theta_matching_unreachable;
        ] );
      ( "other-laws",
        [
          Alcotest.test_case "exponential" `Quick
            test_exponential_survival_integral;
          Alcotest.test_case "deterministic" `Quick test_deterministic_law;
          Alcotest.test_case "uniform" `Quick test_uniform_law;
          Alcotest.test_case "weibull shape 1 = exponential" `Quick
            test_weibull_law;
          Alcotest.test_case "weibull moments Monte Carlo" `Quick
            test_weibull_moments_monte_carlo;
          Alcotest.test_case "gamma shape 1 = exponential" `Quick
            test_gamma_law_shape_one_is_exponential;
          Alcotest.test_case "gamma integral vs quadrature" `Quick
            test_gamma_law_integral_vs_quadrature;
          Alcotest.test_case "lognormal integral vs quadrature" `Quick
            test_lognormal_law_integral_vs_quadrature;
          Alcotest.test_case "lognormal moments Monte Carlo" `Slow
            test_lognormal_law_moments_monte_carlo;
          Alcotest.test_case "hyperexponential closed forms" `Quick
            test_hyperexponential_law;
          Alcotest.test_case "hyperexponential Monte Carlo" `Slow
            test_hyperexponential_monte_carlo;
        ] );
      ( "marginal",
        [
          Alcotest.test_case "basic stats" `Quick test_marginal_basic_stats;
          Alcotest.test_case "sorts and merges" `Quick
            test_marginal_sorts_and_merges;
          Alcotest.test_case "drops zero weights" `Quick
            test_marginal_drops_zero_weight;
          Alcotest.test_case "normalizes" `Quick test_marginal_normalizes;
          Alcotest.test_case "cdf and quantile" `Quick
            test_marginal_cdf_quantile;
          Alcotest.test_case "scale preserves mean" `Quick
            test_marginal_scale_preserves_mean;
          Alcotest.test_case "scale clamping" `Quick test_marginal_scale_clamp;
          Alcotest.test_case "superpose preserves mean, shrinks variance"
            `Quick test_marginal_superpose_mean_preserved;
          Alcotest.test_case "superpose two-point exact" `Quick
            test_marginal_superpose_two_point_exact;
          Alcotest.test_case "heterogeneous add" `Quick
            test_marginal_add_heterogeneous;
          Alcotest.test_case "rebin preserves mean" `Quick
            test_marginal_rebin_preserves_mean;
          Alcotest.test_case "sampler matches" `Quick
            test_marginal_sampler_matches;
          Alcotest.test_case "rejects bad input" `Quick
            test_marginal_rejects_bad_input;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "gamma quantile roundtrip" `Quick
            test_gamma_cdf_quantile_roundtrip;
          Alcotest.test_case "gamma of mean/cv" `Quick test_gamma_of_mean_cv;
          Alcotest.test_case "lognormal of mean/cv" `Quick
            test_lognormal_of_mean_cv;
          Alcotest.test_case "normal" `Quick test_normal_continuous;
        ] );
      ( "properties",
        qcheck
          [
            prop_batch_forms_bitwise;
            prop_scale_preserves_mean;
            prop_superpose_shrinks_variance;
            prop_quantile_inverts_cdf;
            prop_tp_survival_monotone;
          ] );
    ]
