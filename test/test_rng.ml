open Lrd_rng

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let sample_stats n f =
  let rng = Rng.create ~seed:2024L in
  let xs = Array.init n (fun _ -> f rng) in
  (Lrd_numerics.Array_ops.mean xs, Lrd_numerics.Array_ops.variance xs, xs)

(* ------------------------------------------------------------------ *)
(* Generator basics *)

let test_deterministic_from_seed () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:1L in
  for i = 0 to 99 do
    if Rng.uint64 a <> Rng.uint64 b then
      Alcotest.failf "streams diverged at %d" i
  done

let test_different_seeds_differ () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 0 to 99 do
    if Rng.uint64 a = Rng.uint64 b then incr same
  done;
  Alcotest.(check int) "collisions" 0 !same

let test_copy_snapshots_state () =
  let a = Rng.create ~seed:3L in
  ignore (Rng.uint64 a);
  let b = Rng.copy a in
  Alcotest.(check bool) "same continuation" true (Rng.uint64 a = Rng.uint64 b)

let test_split_streams_independent () =
  let a = Rng.create ~seed:4L in
  let b = Rng.split a in
  let c = Rng.split a in
  Alcotest.(check bool) "children differ" true (Rng.uint64 b <> Rng.uint64 c)

let test_float_in_unit_interval () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if not (x >= 0.0 && x < 1.0) then Alcotest.failf "out of range: %g" x
  done

let test_float_pos_never_zero () =
  let rng = Rng.create ~seed:6L in
  for _ = 1 to 10_000 do
    if Rng.float_pos rng <= 0.0 then Alcotest.fail "nonpositive"
  done

let test_float_mean_variance () =
  let mean, var, _ = sample_stats 200_000 Rng.float in
  check_close ~eps:5e-3 "mean" 0.5 mean;
  check_close ~eps:2e-2 "variance" (1.0 /. 12.0) var

let test_int_unbiased_small_bound () =
  let rng = Rng.create ~seed:7L in
  let counts = Array.make 7 0 in
  let n = 140_000 in
  for _ = 1 to n do
    let i = Rng.int rng ~bound:7 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int n /. 7.0 in
      if Float.abs (float_of_int c -. expected) > 5.0 *. sqrt expected then
        Alcotest.failf "bucket %d skewed: %d vs %g" i c expected)
    counts

let test_int_rejects_bad_bound () =
  let rng = Rng.create ~seed:8L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng ~bound:0))

(* ------------------------------------------------------------------ *)
(* Known answers: literal outputs pinned for fixed seeds, so any change
   to the state representation must reproduce the stream bit for bit. *)

let check_uint64s msg r expected =
  List.iteri
    (fun i e ->
      let x = Rng.uint64 r in
      if x <> e then
        Alcotest.failf "%s draw %d: expected 0x%016Lx, got 0x%016Lx" msg i e
          x)
    expected

let test_kat_uint64 () =
  List.iter
    (fun (seed, expected) ->
      check_uint64s (Printf.sprintf "seed %Ld" seed) (Rng.create ~seed)
        expected)
    [
      ( 0L,
        [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
          0x6aa594f1262d2d2cL ] );
      ( 42L,
        [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
          0xecb8ad4703b360a1L ] );
      ( -1L,
        [ 0x8f5520d52a7ead08L; 0xc476a018caa1802dL; 0x81de31c0d260469eL;
          0xbf658d7e065f3c2fL ] );
      ( 20260705L,
        [ 0xdf28fdb8ee36209aL; 0x95a9c1c36e993fb5L; 0x8895da57e910543cL;
          0x53a75a13f3dde616L ] );
    ]

let test_kat_derived () =
  (* One stream from seed 42 through every derived draw, in order. *)
  let r = Rng.create ~seed:42L in
  let floats = List.init 4 (fun _ -> Rng.float r) in
  Alcotest.(check (list (float 0.0))) "float"
    [
      0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1;
    ]
    floats;
  let pos = List.init 2 (fun _ -> Rng.float_pos r) in
  Alcotest.(check (list (float 0.0))) "float_pos"
    [ 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1 ] pos;
  Alcotest.(check (list int)) "int 10" [ 7; 3; 9; 2; 4; 6 ]
    (List.init 6 (fun _ -> Rng.int r ~bound:10));
  Alcotest.(check (list int)) "int 1e9" [ 668446555; 40623521; 910812646 ]
    (List.init 3 (fun _ -> Rng.int r ~bound:1_000_000_000));
  Alcotest.(check (list bool)) "bool"
    [ true; true; true; true; true; false; false; false ]
    (List.init 8 (fun _ -> Rng.bool r))

let test_kat_split_copy () =
  let p = Rng.create ~seed:7L in
  check_uint64s "split child" (Rng.split p)
    [ 0x214c58958ca2a8a5L; 0x84a76abe9e4119dcL; 0xd9dd03480cc8f2e4L ];
  check_uint64s "parent after split" p
    [ 0x475c3d964f482cd2L; 0xd6f1d349952c7996L ];
  let p = Rng.create ~seed:7L in
  List.iter
    (fun (index, expected) ->
      check_uint64s (Printf.sprintf "split_indexed %d" index)
        (Rng.split_indexed p ~index) expected)
    [
      (0, [ 0xbdc0504fdd1f2acbL; 0xc33da9fe8ad3a210L; 0x66cefd9ca290690fL ]);
      (1, [ 0x8135948fff6f2d9cL; 0x13b3bb1ed13ace29L; 0x7720730cab09d179L ]);
      (7, [ 0x9a3a6ce487c5824dL; 0x54090bf31cb3dd10L; 0x82773e6821e6f948L ]);
    ];
  check_uint64s "parent untouched by split_indexed" p
    [ 0xb358faf74ef9765aL; 0x475c3d964f482cd2L ];
  let c = Rng.copy p in
  check_uint64s "copy" c [ 0xd6f1d349952c7996L ];
  check_uint64s "original after copy" p [ 0xd6f1d349952c7996L ]

let test_kat_long_stream () =
  (* A fold over the first million draws pins the stream far from the
     seed, where a state-update slip would have long since diverged. *)
  let r = Rng.create ~seed:1L in
  let acc = ref 0L in
  for _ = 1 to 1_000_000 do
    acc := Int64.logxor (Int64.mul !acc 3L) (Rng.uint64 r)
  done;
  Alcotest.(check int64) "fold" 0x13c7e7ca59c27470L !acc

let test_draws_do_not_allocate () =
  (* The state is unboxed and the draws are unboxed externals, so a
     steady stream of draws must not touch the minor heap.  Only
     meaningful in native code — bytecode boxes every float. *)
  let rng = Rng.create ~seed:12L in
  (* A float array cell holds the running sum unboxed. *)
  let acc = [| 0.0 |] in
  let draw () =
    for _ = 1 to 10_000 do
      acc.(0) <- acc.(0) +. Rng.float rng +. Rng.float_pos rng
    done
  in
  draw ();
  let w0 = Gc.minor_words () in
  draw ();
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "draws are finite" true (Float.is_finite acc.(0));
  match Sys.backend_type with
  | Sys.Native ->
      if allocated > 0.0 then
        Alcotest.failf "20000 draws allocated %.0f minor words" allocated
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Samplers *)

let test_exponential_moments () =
  let mean, var, _ = sample_stats 200_000 (Sampler.exponential ~rate:2.0) in
  check_close ~eps:1e-2 "mean" 0.5 mean;
  check_close ~eps:3e-2 "variance" 0.25 var

let test_pareto_ccdf_matches () =
  let theta = 2.0 and alpha = 1.5 in
  let _, _, xs = sample_stats 200_000 (Sampler.pareto ~theta ~alpha) in
  List.iter
    (fun t ->
      let expected = ((t +. theta) /. theta) ** -.alpha in
      let count =
        Array.fold_left (fun acc x -> if x > t then acc + 1 else acc) 0 xs
      in
      let empirical = float_of_int count /. float_of_int (Array.length xs) in
      check_close ~eps:0.05 (Printf.sprintf "ccdf at %g" t) expected empirical)
    [ 0.5; 2.0; 8.0; 20.0 ]

let test_pareto_mean () =
  (* E[T] = theta / (alpha - 1) for the shifted Pareto. *)
  let mean, _, _ =
    sample_stats 400_000 (Sampler.pareto ~theta:1.0 ~alpha:2.5)
  in
  check_close ~eps:2e-2 "mean" (1.0 /. 1.5) mean

let test_truncated_pareto_capped () =
  let rng = Rng.create ~seed:9L in
  let cutoff = 3.0 in
  let atom = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Sampler.truncated_pareto rng ~theta:1.0 ~alpha:1.2 ~cutoff in
    if x > cutoff then Alcotest.fail "exceeded cutoff";
    if x = cutoff then incr atom
  done;
  (* Atom mass: ((cutoff+theta)/theta)^-alpha = 4^-1.2. *)
  check_close ~eps:0.05 "atom mass"
    (4.0 ** -1.2)
    (float_of_int !atom /. float_of_int n)

let test_normal_moments () =
  let mean, var, _ = sample_stats 200_000 (Sampler.normal ~mean:3.0 ~std:2.0) in
  check_close ~eps:5e-3 "mean" 3.0 mean;
  check_close ~eps:2e-2 "variance" 4.0 var

let test_normal_tail_fraction () =
  let _, _, xs = sample_stats 200_000 (Sampler.normal ~mean:0.0 ~std:1.0) in
  let beyond2 =
    Array.fold_left
      (fun acc x -> if Float.abs x > 2.0 then acc + 1 else acc)
      0 xs
  in
  check_close ~eps:0.05 "two-sigma" 0.0455
    (float_of_int beyond2 /. float_of_int (Array.length xs))

let test_gamma_moments () =
  List.iter
    (fun (shape, scale) ->
      let mean, var, _ = sample_stats 200_000 (Sampler.gamma ~shape ~scale) in
      check_close ~eps:2e-2 "mean" (shape *. scale) mean;
      check_close ~eps:5e-2 "variance" (shape *. scale *. scale) var)
    [ (0.5, 1.0); (2.0, 0.5); (9.0, 3.0) ]

let test_lognormal_moments () =
  let mu = 0.2 and sigma = 0.4 in
  let mean, _, _ = sample_stats 200_000 (Sampler.lognormal ~mu ~sigma) in
  check_close ~eps:1e-2 "mean" (exp (mu +. (sigma *. sigma /. 2.0))) mean

let test_alias_method_distribution () =
  let weights = [| 1.0; 0.0; 3.0; 6.0 |] in
  let table = Sampler.discrete_of_weights weights in
  let rng = Rng.create ~seed:10L in
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Sampler.discrete_draw rng table in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  check_close ~eps:0.02 "w0" 0.1 (float_of_int counts.(0) /. float_of_int n);
  check_close ~eps:0.02 "w2" 0.3 (float_of_int counts.(2) /. float_of_int n);
  check_close ~eps:0.02 "w3" 0.6 (float_of_int counts.(3) /. float_of_int n)

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Sampler.discrete_of_weights: empty weights") (fun () ->
      ignore (Sampler.discrete_of_weights [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Sampler.discrete_of_weights: negative or NaN weight")
    (fun () -> ignore (Sampler.discrete_of_weights [| 1.0; -1.0 |]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Sampler.discrete_of_weights: weights must sum to > 0")
    (fun () -> ignore (Sampler.discrete_of_weights [| 0.0; 0.0 |]))

let test_sampler_rejects_bad_params () =
  let rng = Rng.create ~seed:11L in
  Alcotest.check_raises "exp rate"
    (Invalid_argument "Sampler.exponential: rate must be positive") (fun () ->
      ignore (Sampler.exponential rng ~rate:0.0));
  Alcotest.check_raises "pareto"
    (Invalid_argument "Sampler.pareto: parameters must be positive") (fun () ->
      ignore (Sampler.pareto rng ~theta:0.0 ~alpha:1.0));
  Alcotest.check_raises "gamma"
    (Invalid_argument "Sampler.gamma: parameters must be positive") (fun () ->
      ignore (Sampler.gamma rng ~shape:(-1.0) ~scale:1.0))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int stays in [0, bound)" ~count:200
    QCheck.(int_range 1 1000)
    (fun bound ->
      let rng = Rng.create ~seed:(Int64.of_int bound) in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Rng.int rng ~bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_truncated_pareto_bounded =
  QCheck.Test.make ~name:"truncated pareto never exceeds cutoff" ~count:100
    QCheck.(pair (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (theta, cutoff) ->
      let rng = Rng.create ~seed:99L in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Sampler.truncated_pareto rng ~theta ~alpha:1.5 ~cutoff in
        if x > cutoff || x < 0.0 then ok := false
      done;
      !ok)

let prop_gamma_positive =
  QCheck.Test.make ~name:"gamma samples are positive" ~count:100
    QCheck.(pair (float_range 0.05 20.0) (float_range 0.05 20.0))
    (fun (shape, scale) ->
      let rng = Rng.create ~seed:7L in
      let ok = ref true in
      for _ = 1 to 50 do
        if Sampler.gamma rng ~shape ~scale <= 0.0 then ok := false
      done;
      !ok)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rng"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic from seed" `Quick
            test_deterministic_from_seed;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "copy snapshots" `Quick test_copy_snapshots_state;
          Alcotest.test_case "split independence" `Quick
            test_split_streams_independent;
          Alcotest.test_case "float in [0,1)" `Quick
            test_float_in_unit_interval;
          Alcotest.test_case "float_pos positive" `Quick
            test_float_pos_never_zero;
          Alcotest.test_case "float moments" `Quick test_float_mean_variance;
          Alcotest.test_case "int unbiased" `Quick
            test_int_unbiased_small_bound;
          Alcotest.test_case "int rejects bad bound" `Quick
            test_int_rejects_bad_bound;
        ] );
      ( "known-answer",
        [
          Alcotest.test_case "uint64" `Quick test_kat_uint64;
          Alcotest.test_case "float, int, bool" `Quick test_kat_derived;
          Alcotest.test_case "split, split_indexed, copy" `Quick
            test_kat_split_copy;
          Alcotest.test_case "long stream" `Quick test_kat_long_stream;
          Alcotest.test_case "draws do not allocate" `Quick
            test_draws_do_not_allocate;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "exponential moments" `Quick
            test_exponential_moments;
          Alcotest.test_case "pareto ccdf" `Quick test_pareto_ccdf_matches;
          Alcotest.test_case "pareto mean" `Quick test_pareto_mean;
          Alcotest.test_case "truncated pareto atom" `Quick
            test_truncated_pareto_capped;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "normal tails" `Quick test_normal_tail_fraction;
          Alcotest.test_case "gamma moments" `Quick test_gamma_moments;
          Alcotest.test_case "lognormal mean" `Quick test_lognormal_moments;
          Alcotest.test_case "alias method" `Quick
            test_alias_method_distribution;
          Alcotest.test_case "alias rejects bad weights" `Quick
            test_alias_rejects_bad_weights;
          Alcotest.test_case "samplers reject bad params" `Quick
            test_sampler_rejects_bad_params;
        ] );
      ( "properties",
        qcheck
          [
            prop_int_in_bounds;
            prop_truncated_pareto_bounded;
            prop_gamma_positive;
          ] );
    ]
