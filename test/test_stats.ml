open Lrd_stats

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng () = Lrd_rng.Rng.create ~seed:271828L

let white_noise n =
  let r = rng () in
  Array.init n (fun _ -> Lrd_rng.Sampler.normal r ~mean:0.0 ~std:1.0)

(* ------------------------------------------------------------------ *)
(* Descriptive *)

let test_descriptive_basics () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 (Descriptive.mean a);
  check_close "variance" 4.0 (Descriptive.variance a);
  check_close "std" 2.0 (Descriptive.std a);
  check_close "sample variance" (32.0 /. 7.0) (Descriptive.sample_variance a)

let test_descriptive_quantiles () =
  let a = [| 3.0; 1.0; 2.0; 4.0; 5.0 |] in
  check_close "median" 3.0 (Descriptive.median a);
  check_close "min" 1.0 (Descriptive.quantile a ~p:0.0);
  check_close "max" 5.0 (Descriptive.quantile a ~p:1.0);
  check_close "interpolated" 1.5 (Descriptive.quantile a ~p:0.125);
  (* Input not modified. *)
  Alcotest.(check bool) "unsorted input intact" true (a.(0) = 3.0)

let test_descriptive_skew_kurtosis () =
  (* Symmetric data: zero skewness; two-point data has kurtosis -2. *)
  let sym = [| -2.0; -1.0; 0.0; 1.0; 2.0 |] in
  check_close "skew" 0.0 (Descriptive.skewness sym);
  let two = [| -1.0; 1.0; -1.0; 1.0 |] in
  check_close "kurtosis" (-2.0) (Descriptive.excess_kurtosis two)

let test_linear_regression_exact () =
  let x = [| 0.0; 1.0; 2.0; 3.0 |] in
  let y = Array.map (fun v -> (2.5 *. v) -. 1.0) x in
  let slope, intercept = Descriptive.linear_regression ~x ~y in
  check_close "slope" 2.5 slope;
  check_close "intercept" (-1.0) intercept

let test_linear_regression_rejects_degenerate () =
  Alcotest.check_raises "constant x"
    (Invalid_argument "Descriptive.linear_regression: degenerate abscissae")
    (fun () ->
      ignore
        (Descriptive.linear_regression ~x:[| 1.0; 1.0 |] ~y:[| 1.0; 2.0 |]))

(* ------------------------------------------------------------------ *)
(* Autocorrelation *)

let test_autocovariance_fft_matches_direct () =
  (* The shared half-spectrum against the O(n^2) DFT of the demeaned,
     zero-padded series at the ACF's transform size (n = 700 is not a
     power of two, so the padding is exercised), then the
     Wiener-Khinchin lags it feeds against the direct loop (max_lag 400
     is past the crossover, so the one-shot takes the FFT branch). *)
  let a = white_noise 700 in
  let size = 2048 in
  let power = Half_spectrum.power ~size a in
  Alcotest.(check int) "bins" ((size / 2) + 1) (Array.length power);
  let mean = Lrd_numerics.Array_ops.mean a in
  let re = Array.make size 0.0 and im = Array.make size 0.0 in
  Array.iteri (fun i v -> re.(i) <- v -. mean) a;
  let xre, xim = Lrd_numerics.Fft.dft_naive ~re ~im in
  let expected = Array.init ((size / 2) + 1) (fun k ->
      (xre.(k) *. xre.(k)) +. (xim.(k) *. xim.(k)))
  in
  let peak = Array.fold_left Float.max 0.0 expected in
  Array.iteri
    (fun k v ->
      if Float.abs (power.(k) -. v) > 1e-12 *. peak then
        Alcotest.failf "bin %d: expected %.17g, got %.17g" k v power.(k))
    expected;
  let fft = Autocorr.autocovariance a ~max_lag:400 in
  let direct = Autocorr.autocovariance_direct a ~max_lag:400 in
  Array.iteri
    (fun k v -> check_close ~eps:1e-9 (Printf.sprintf "lag %d" k) v fft.(k))
    direct

let test_autocovariance_crossover_both_exact () =
  (* Either side of the centralized crossover gives the same numbers up
     to rounding: small max_lag (one-shot goes direct) against a prefix
     of the FFT lags, and large max_lag (one-shot goes FFT) against the
     direct loop. *)
  let a = white_noise 700 in
  let small = Autocorr.autocovariance a ~max_lag:2 in
  let big = Autocorr.autocovariance a ~max_lag:600 in
  Array.iteri
    (fun k v ->
      check_close ~eps:1e-9 (Printf.sprintf "small lag %d" k) v big.(k))
    small;
  let big_direct = Autocorr.autocovariance_direct a ~max_lag:600 in
  Array.iteri
    (fun k v ->
      check_close ~eps:1e-9 (Printf.sprintf "big lag %d" k) v big.(k))
    big_direct

let test_autocorrelation_normalized () =
  let a = white_noise 4096 in
  let acf = Autocorr.autocorrelation a ~max_lag:20 in
  check_close "lag 0" 1.0 acf.(0);
  (* White noise: all other lags near zero (1/sqrt n scale). *)
  for k = 1 to 20 do
    if Float.abs acf.(k) > 0.08 then
      Alcotest.failf "white noise acf too large at %d: %g" k acf.(k)
  done

let test_autocorrelation_of_ar1 () =
  (* AR(1) with coefficient 0.8: acf(k) = 0.8^k. *)
  let r = rng () in
  let n = 200_000 in
  let a = Array.make n 0.0 in
  for i = 1 to n - 1 do
    a.(i) <-
      (0.8 *. a.(i - 1)) +. Lrd_rng.Sampler.normal r ~mean:0.0 ~std:1.0
  done;
  let acf = Autocorr.autocorrelation a ~max_lag:5 in
  List.iter
    (fun k ->
      check_close ~eps:0.03
        (Printf.sprintf "lag %d" k)
        (0.8 ** float_of_int k)
        acf.(k))
    [ 1; 2; 3; 4; 5 ]

let test_autocorr_rejects_bad_lag () =
  Alcotest.check_raises "too long"
    (Invalid_argument "Autocorr: max_lag must be below length") (fun () ->
      ignore (Autocorr.autocovariance [| 1.0; 2.0 |] ~max_lag:2))

(* ------------------------------------------------------------------ *)
(* Hurst estimators *)

let fgn h n = Lrd_trace.Fgn.davies_harte (rng ()) ~hurst:h ~n

let check_hurst_estimate name estimator data expected tolerance =
  let fit : Hurst.fit = estimator data in
  if Float.abs (fit.Hurst.hurst -. expected) > tolerance then
    Alcotest.failf "%s: expected H ~ %.2f, estimated %.3f" name expected
      fit.Hurst.hurst

let test_aggregated_variance_white_noise () =
  check_hurst_estimate "aggvar white" Hurst.aggregated_variance
    (white_noise 65_536) 0.5 0.08

let test_aggregated_variance_fgn () =
  check_hurst_estimate "aggvar fgn .8" Hurst.aggregated_variance
    (fgn 0.8 65_536) 0.8 0.1

let test_rs_white_noise () =
  check_hurst_estimate "rs white" Hurst.rescaled_range (white_noise 32_768)
    0.5 0.12

let test_rs_fgn () =
  check_hurst_estimate "rs fgn .85" Hurst.rescaled_range (fgn 0.85 32_768)
    0.85 0.15

let test_gph_white_noise () =
  check_hurst_estimate "gph white" Hurst.gph (white_noise 16_384) 0.5 0.1

let test_gph_fgn () =
  check_hurst_estimate "gph fgn .75" Hurst.gph (fgn 0.75 65_536) 0.75 0.12

let test_abry_veitch_white_noise () =
  check_hurst_estimate "wavelet white" Hurst.abry_veitch (white_noise 32_768)
    0.5 0.08

let test_abry_veitch_fgn () =
  check_hurst_estimate "wavelet fgn .9" Hurst.abry_veitch (fgn 0.9 65_536) 0.9
    0.08;
  check_hurst_estimate "wavelet fgn .6" Hurst.abry_veitch (fgn 0.6 65_536) 0.6
    0.08

let test_abry_veitch_haar_variant () =
  check_hurst_estimate "haar fgn .8"
    (Hurst.abry_veitch ~wavelet:Lrd_numerics.Wavelet.Haar ~weighted:false)
    (fgn 0.8 65_536) 0.8 0.1

let test_abry_veitch_trend_robustness () =
  (* A linear trend pollutes the Haar logscale diagram but is
     annihilated by the two vanishing moments of D4. *)
  let n = 65_536 in
  let base = fgn 0.7 n in
  let trended =
    Array.mapi (fun i v -> v +. (6.0 *. float_of_int i /. float_of_int n)) base
  in
  (* Compare unweighted fits: the count-weighted regression already
     downweights the coarse octaves where a trend lives, which masks the
     effect this test isolates. *)
  let d4 =
    (Hurst.abry_veitch ~wavelet:Lrd_numerics.Wavelet.Daubechies4
       ~weighted:false trended)
      .Hurst.hurst
  in
  let haar =
    (Hurst.abry_veitch ~wavelet:Lrd_numerics.Wavelet.Haar ~weighted:false
       trended)
      .Hurst.hurst
  in
  if Float.abs (d4 -. 0.7) > 0.1 then
    Alcotest.failf "D4 swayed by trend: %.3f" d4;
  (* The Haar estimate must be visibly inflated relative to D4. *)
  Alcotest.(check bool) "haar inflated" true (haar > d4 +. 0.05)

let test_logscale_diagram_structure () =
  let data = fgn 0.8 16_384 in
  let diagram = Hurst.logscale_diagram data in
  Alcotest.(check bool) "several octaves" true (Array.length diagram >= 6);
  Array.iter
    (fun p ->
      if not (p.Hurst.ci_low <= p.Hurst.log2_energy) then
        Alcotest.failf "octave %d: point below band" p.Hurst.octave;
      if not (p.Hurst.log2_energy <= p.Hurst.ci_high) then
        Alcotest.failf "octave %d: point above band" p.Hurst.octave;
      if p.Hurst.coefficients < 4 then
        Alcotest.failf "octave %d: too few coefficients" p.Hurst.octave)
    diagram;
  (* Bands widen with the octave (fewer coefficients). *)
  let first = diagram.(0) and last = diagram.(Array.length diagram - 1) in
  Alcotest.(check bool) "band widens" true
    (last.Hurst.ci_high -. last.Hurst.ci_low
    > first.Hurst.ci_high -. first.Hurst.ci_low)

let test_logscale_diagram_slope_matches_estimator () =
  let data = fgn 0.75 32_768 in
  let diagram = Hurst.logscale_diagram data in
  let xs = Array.map (fun p -> float_of_int p.Hurst.octave) diagram in
  let ys = Array.map (fun p -> p.Hurst.log2_energy) diagram in
  let slope, _ = Descriptive.linear_regression ~x:xs ~y:ys in
  let fit = Hurst.abry_veitch ~weighted:false data in
  if Float.abs (slope -. fit.Hurst.slope) > 1e-9 then
    Alcotest.failf "diagram/estimator mismatch: %.4f vs %.4f" slope
      fit.Hurst.slope

let test_weighted_regression () =
  (* With all weights equal the weighted fit equals OLS. *)
  let x = [| 0.0; 1.0; 2.0; 3.0 |] in
  let y = [| 1.0; 2.9; 5.1; 7.0 |] in
  let s0, i0 = Descriptive.linear_regression ~x ~y in
  let s1, i1 =
    Descriptive.weighted_linear_regression ~x ~y ~w:[| 2.0; 2.0; 2.0; 2.0 |]
  in
  if Float.abs (s0 -. s1) > 1e-12 || Float.abs (i0 -. i1) > 1e-12 then
    Alcotest.fail "uniform weights differ from OLS";
  (* A zero-weight outlier must not affect the fit. *)
  let x2 = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let y2 = [| 1.0; 2.9; 5.1; 7.0; 1000.0 |] in
  let s2, _ =
    Descriptive.weighted_linear_regression ~x:x2 ~y:y2
      ~w:[| 1.0; 1.0; 1.0; 1.0; 0.0 |]
  in
  if Float.abs (s0 -. s2) > 1e-12 then Alcotest.fail "outlier leaked in"

let test_variance_time_curve_shape () =
  (* For fGn, Var(X^(m)) = m^(2H-2); check the ratio across a decade. *)
  let data = fgn 0.8 65_536 in
  let curve = Hurst.variance_time_curve data ~block_sizes:[| 10; 100 |] in
  let _, v10 = curve.(0) and _, v100 = curve.(1) in
  (* Expected ratio 10^(2*0.8-2) = 10^-0.4 ~ 0.398. *)
  check_close ~eps:0.25 "decade ratio" (10.0 ** -0.4) (v100 /. v10)

let test_whittle_white_noise () =
  let f = Whittle.local_whittle (white_noise 32_768) in
  if Float.abs (f.Whittle.hurst -. 0.5) > 0.06 then
    Alcotest.failf "whittle on white noise: %.3f" f.Whittle.hurst

let test_whittle_fgn () =
  List.iter
    (fun h ->
      let f = Whittle.local_whittle (fgn h 65_536) in
      if Float.abs (f.Whittle.hurst -. h) > 0.06 then
        Alcotest.failf "whittle on fGn %.2f: %.3f" h f.Whittle.hurst;
      (* H = d + 1/2 by construction. *)
      if Float.abs (f.Whittle.hurst -. f.Whittle.memory -. 0.5) > 1e-12 then
        Alcotest.fail "hurst/memory mismatch")
    [ 0.6; 0.8; 0.9 ]

let test_whittle_bandwidth_control () =
  let data = fgn 0.8 16_384 in
  let f = Whittle.local_whittle ~frequencies:128 data in
  Alcotest.(check int) "bandwidth respected" 128 f.Whittle.frequencies

let test_whittle_rejects_short () =
  Alcotest.check_raises "short"
    (Invalid_argument "Whittle.local_whittle: series too short") (fun () ->
      ignore (Whittle.local_whittle (white_noise 32)))

let test_estimators_reject_short_series () =
  Alcotest.check_raises "aggvar short"
    (Invalid_argument "Hurst.aggregated_variance: series too short") (fun () ->
      ignore (Hurst.aggregated_variance (white_noise 16)));
  Alcotest.check_raises "gph short"
    (Invalid_argument "Hurst.gph: series too short") (fun () ->
      ignore (Hurst.gph (white_noise 8)))

(* ------------------------------------------------------------------ *)
(* Spectral *)

let test_periodogram_white_noise_level () =
  let xs = white_noise 32_768 in
  let p = Spectral.periodogram xs in
  Alcotest.(check int) "single segment" 1 p.Spectral.segments;
  (* Mean level = variance / (2 pi). *)
  check_close ~eps:0.05 "level"
    (1.0 /. (2.0 *. Float.pi))
    (Lrd_numerics.Array_ops.mean p.Spectral.power)

let test_welch_white_noise_level () =
  let xs = white_noise 65_536 in
  let est = Spectral.welch ~segment:1024 xs in
  Alcotest.(check bool) "many segments" true (est.Spectral.segments > 50);
  check_close ~eps:0.03 "level"
    (1.0 /. (2.0 *. Float.pi))
    (Lrd_numerics.Array_ops.mean est.Spectral.power);
  (* Welch variance per bin is far below the raw periodogram's. *)
  let p = Spectral.periodogram xs in
  let rel_spread e =
    Lrd_numerics.Array_ops.variance e
    /. (Lrd_numerics.Array_ops.mean e ** 2.0)
  in
  Alcotest.(check bool) "variance reduced" true
    (rel_spread est.Spectral.power < rel_spread p.Spectral.power /. 4.0)

let test_welch_tracks_farima_spectrum () =
  let d = 0.3 in
  let xs = Lrd_trace.Farima.generate (rng ()) ~d ~n:262_144 in
  let est = Spectral.welch ~segment:2048 xs in
  (* Geometric-mean ratio to theory near one across low/mid bins. *)
  let acc = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun j w ->
      if j < 200 then begin
        acc := !acc +. log (est.Spectral.power.(j) /. Spectral.farima_spectrum ~d w);
        incr count
      end)
    est.Spectral.frequencies;
  let ratio = exp (!acc /. float_of_int !count) in
  if ratio < 0.8 || ratio > 1.25 then
    Alcotest.failf "welch/theory ratio %.3f" ratio

let test_fgn_spectrum_integrates_to_variance () =
  (* Unit-variance fGn: 2 int_0^pi f(w) dw ~ 1. *)
  let m = 5_000 in
  let acc = ref 0.0 in
  for i = 1 to m do
    let w = Float.pi *. float_of_int i /. float_of_int m in
    acc := !acc +. (2.0 *. Spectral.fgn_spectrum ~hurst:0.8 w *. Float.pi /. float_of_int m)
  done;
  check_close ~eps:0.05 "variance" 1.0 !acc

let test_spectra_reject_bad_input () =
  Alcotest.check_raises "farima d"
    (Invalid_argument "Spectral.farima_spectrum: d must lie in [0, 0.5)")
    (fun () -> ignore (Spectral.farima_spectrum ~d:0.7 1.0));
  Alcotest.check_raises "fgn freq"
    (Invalid_argument "Spectral.fgn_spectrum: frequency must lie in (0, pi]")
    (fun () -> ignore (Spectral.fgn_spectrum ~hurst:0.8 4.0))

(* ------------------------------------------------------------------ *)
(* Batch means *)

let test_batch_means_iid_coverage () =
  (* On iid normal data the interval should cover the true mean with a
     comfortable margin (3 sigma of the half-width calibration). *)
  let data = white_noise 16_000 in
  let i = Batch_means.mean_interval ~batches:16 data in
  Alcotest.(check bool) "covers 0" true
    (Float.abs i.Batch_means.estimate <= 3.0 *. i.Batch_means.half_width);
  Alcotest.(check int) "batch count" 16 i.Batch_means.batches;
  Alcotest.(check int) "batch length" 1000 i.Batch_means.batch_length

let test_batch_means_wider_under_correlation () =
  (* AR(1) data with the same marginal variance must produce a wider
     interval than white noise. *)
  let r = rng () in
  let n = 32_768 in
  let rho = 0.95 in
  let innovation = sqrt (1.0 -. (rho *. rho)) in
  let ar = Array.make n 0.0 in
  for i = 1 to n - 1 do
    ar.(i) <-
      (rho *. ar.(i - 1))
      +. Lrd_rng.Sampler.normal r ~mean:0.0 ~std:innovation
  done;
  let iid = white_noise n in
  let wi = (Batch_means.mean_interval ar).Batch_means.half_width in
  let wn = (Batch_means.mean_interval iid).Batch_means.half_width in
  Alcotest.(check bool) "correlated wider" true (wi > 2.0 *. wn)

let test_batch_means_loss_ratio () =
  (* Constant ratio in every batch: exact estimate, zero width. *)
  let losses = Array.make 640 0.5 and arrivals = Array.make 640 2.0 in
  let i = Batch_means.loss_rate_interval ~batches:8 ~losses ~arrivals () in
  check_close "ratio" 0.25 i.Batch_means.estimate;
  check_close "no spread" 0.0 i.Batch_means.half_width

let test_batch_means_rejects_bad_input () =
  Alcotest.check_raises "too few batches"
    (Invalid_argument "Batch_means: need at least 2 batches") (fun () ->
      ignore (Batch_means.mean_interval ~batches:1 (white_noise 100)));
  Alcotest.check_raises "short batches"
    (Invalid_argument "Batch_means: need at least 2 samples per batch")
    (fun () -> ignore (Batch_means.mean_interval ~batches:16 (white_noise 20)))

(* ------------------------------------------------------------------ *)
(* Stationarity diagnostics *)

let test_surrogate_preserves_second_order () =
  let data = fgn 0.8 4_096 in
  let surrogate =
    Stationarity.phase_randomized_surrogate (rng ()) data
  in
  Alcotest.(check int) "length" (Array.length data) (Array.length surrogate);
  check_close ~eps:0.02 "mean preserved" (Descriptive.mean data +. 10.0)
    (Descriptive.mean surrogate +. 10.0);
  check_close ~eps:0.1 "variance preserved" (Descriptive.variance data)
    (Descriptive.variance surrogate);
  (* LRD survives phase randomization. *)
  let h = (Hurst.abry_veitch surrogate).Hurst.hurst in
  Alcotest.(check bool) "H survives" true (Float.abs (h -. 0.8) < 0.15)

let test_surrogate_differs_from_original () =
  let data = fgn 0.7 1_024 in
  let surrogate = Stationarity.phase_randomized_surrogate (rng ()) data in
  Alcotest.(check bool) "not identical" true (surrogate <> data)

let test_cusum_detects_level_shift () =
  let r = rng () in
  let n = 4_096 in
  let data =
    Array.init n (fun i ->
        Lrd_rng.Sampler.normal r ~mean:(if i < n / 2 then 0.0 else 1.0)
          ~std:1.0)
  in
  let result = Stationarity.cusum data in
  Alcotest.(check bool) "rejects" true
    (result.Stationarity.statistic > result.Stationarity.critical_5pct);
  Alcotest.(check bool) "locates the shift" true
    (abs (result.Stationarity.change_point - (n / 2)) < n / 10)

let test_cusum_accepts_white_noise () =
  let result = Stationarity.cusum (white_noise 8_192) in
  Alcotest.(check bool) "below critical" true
    (result.Stationarity.statistic < result.Stationarity.critical_5pct)

let test_split_half_shift () =
  let r = rng () in
  let n = 8_192 in
  let shifted =
    Array.init n (fun i ->
        Lrd_rng.Sampler.normal r ~mean:(if i < n / 2 then 0.0 else 2.0)
          ~std:1.0)
  in
  Alcotest.(check bool) "large on shift" true
    (Float.abs (Stationarity.split_half_mean_shift shifted) > 5.0);
  Alcotest.(check bool) "small on white noise" true
    (Float.abs (Stationarity.split_half_mean_shift (white_noise n)) < 4.0)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_acv_lag0_is_variance =
  QCheck.Test.make ~name:"autocovariance at lag 0 equals the variance"
    ~count:50
    (QCheck.make
       QCheck.Gen.(list_size (int_range 8 200) (float_range (-5.0) 5.0)))
    (fun xs ->
      let a = Array.of_list xs in
      let acv = Autocorr.autocovariance a ~max_lag:0 in
      Float.abs (acv.(0) -. Descriptive.variance a)
      <= 1e-8 *. (1.0 +. acv.(0)))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in p" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 2 100) (float_range (-100.0) 100.0))
           (pair (float_range 0.0 1.0) (float_range 0.0 1.0))))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Descriptive.quantile a ~p:lo <= Descriptive.quantile a ~p:hi +. 1e-12)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "basics" `Quick test_descriptive_basics;
          Alcotest.test_case "quantiles" `Quick test_descriptive_quantiles;
          Alcotest.test_case "skew and kurtosis" `Quick
            test_descriptive_skew_kurtosis;
          Alcotest.test_case "regression exact" `Quick
            test_linear_regression_exact;
          Alcotest.test_case "regression rejects degenerate" `Quick
            test_linear_regression_rejects_degenerate;
        ] );
      ( "autocorr",
        [
          Alcotest.test_case "fft matches direct" `Quick
            test_autocovariance_fft_matches_direct;
          Alcotest.test_case "crossover both exact" `Quick
            test_autocovariance_crossover_both_exact;
          Alcotest.test_case "normalization" `Quick
            test_autocorrelation_normalized;
          Alcotest.test_case "AR(1) geometric decay" `Slow
            test_autocorrelation_of_ar1;
          Alcotest.test_case "rejects bad lag" `Quick
            test_autocorr_rejects_bad_lag;
        ] );
      ( "hurst",
        [
          Alcotest.test_case "aggregated variance on white noise" `Slow
            test_aggregated_variance_white_noise;
          Alcotest.test_case "aggregated variance on fGn" `Slow
            test_aggregated_variance_fgn;
          Alcotest.test_case "R/S on white noise" `Slow test_rs_white_noise;
          Alcotest.test_case "R/S on fGn" `Slow test_rs_fgn;
          Alcotest.test_case "GPH on white noise" `Slow test_gph_white_noise;
          Alcotest.test_case "GPH on fGn" `Slow test_gph_fgn;
          Alcotest.test_case "wavelet on white noise" `Slow
            test_abry_veitch_white_noise;
          Alcotest.test_case "wavelet on fGn" `Slow test_abry_veitch_fgn;
          Alcotest.test_case "wavelet Haar variant" `Slow
            test_abry_veitch_haar_variant;
          Alcotest.test_case "wavelet trend robustness (D4 vs Haar)" `Slow
            test_abry_veitch_trend_robustness;
          Alcotest.test_case "weighted regression" `Quick
            test_weighted_regression;
          Alcotest.test_case "logscale diagram structure" `Slow
            test_logscale_diagram_structure;
          Alcotest.test_case "logscale diagram slope" `Slow
            test_logscale_diagram_slope_matches_estimator;
          Alcotest.test_case "variance-time curve" `Slow
            test_variance_time_curve_shape;
          Alcotest.test_case "rejects short series" `Quick
            test_estimators_reject_short_series;
        ] );
      ( "whittle",
        [
          Alcotest.test_case "white noise" `Slow test_whittle_white_noise;
          Alcotest.test_case "fGn sweep" `Slow test_whittle_fgn;
          Alcotest.test_case "bandwidth control" `Quick
            test_whittle_bandwidth_control;
          Alcotest.test_case "rejects short series" `Quick
            test_whittle_rejects_short;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "periodogram white noise" `Slow
            test_periodogram_white_noise_level;
          Alcotest.test_case "welch white noise" `Slow
            test_welch_white_noise_level;
          Alcotest.test_case "welch tracks FARIMA theory" `Slow
            test_welch_tracks_farima_spectrum;
          Alcotest.test_case "fGn spectrum integrates to variance" `Quick
            test_fgn_spectrum_integrates_to_variance;
          Alcotest.test_case "rejects bad input" `Quick
            test_spectra_reject_bad_input;
        ] );
      ( "batch-means",
        [
          Alcotest.test_case "iid coverage" `Quick
            test_batch_means_iid_coverage;
          Alcotest.test_case "wider under correlation" `Slow
            test_batch_means_wider_under_correlation;
          Alcotest.test_case "loss ratio" `Quick test_batch_means_loss_ratio;
          Alcotest.test_case "rejects bad input" `Quick
            test_batch_means_rejects_bad_input;
        ] );
      ( "stationarity",
        [
          Alcotest.test_case "surrogate second order" `Slow
            test_surrogate_preserves_second_order;
          Alcotest.test_case "surrogate differs" `Quick
            test_surrogate_differs_from_original;
          Alcotest.test_case "cusum detects level shift" `Quick
            test_cusum_detects_level_shift;
          Alcotest.test_case "cusum accepts white noise" `Quick
            test_cusum_accepts_white_noise;
          Alcotest.test_case "split-half shift" `Quick test_split_half_shift;
        ] );
      ( "properties",
        qcheck [ prop_acv_lag0_is_variance; prop_quantile_monotone ] );
    ]
