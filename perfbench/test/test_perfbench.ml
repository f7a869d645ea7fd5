open Perfbench

let problems = Alcotest.(list string)
let trips name out = Alcotest.(check bool) name true (Check.text out <> [])
let passes name out = Alcotest.check problems name [] (Check.text out)

(* Shapes copied from real experiment output. *)
let surface cell =
  String.concat "\n"
    [
      "loss rate (rows: buffer_s; columns: cutoff_s)";
      "buffer_s\\cutoff_s         0.1           1          10         inf";
      "       0.01   1.065e-03   3.413e-03   4.130e-03   4.579e-03";
      Printf.sprintf "    0.05848   6.403e-09   %9s   1.981e-03   2.701e-03" cell;
      "[fig4 completed in 0.12 s CPU]";
    ]

let occupancy lower upper =
  String.concat "\n"
    [
      "mean occupancy: certified [0.6919, 0.7879]; simulated 0.7334";
      "";
      " threshold        lower        upper    simulated";
      "       0.2        0.618       0.6725       0.6384";
      Printf.sprintf "       0.5   %10s   %10s       0.4996" lower upper;
      "";
    ]

let priority video =
  String.concat "\n"
    [
      "   link load   video loss     low loss   fifo (mixed)";
      "         0.6            0    6.715e-05              0";
      Printf.sprintf "        0.75   %10s    1.277e-02      2.273e-03" video;
    ]

let solver_table seconds =
  String.concat "\n"
    [
      "     variant         loss iterations     bins  refines    seconds";
      Printf.sprintf "   warm+auto    1.083e-03        656      512        2      %s" seconds;
      "(all variants must agree on the loss)";
      "[abl-solver completed in 0.17 s CPU]";
    ]

let text_checks () =
  passes "good surface" (surface "8.845e-04");
  trips "NaN loss" (surface "nan");
  trips "loss above one" (surface "1.500e+00");
  trips "negative loss" (surface "-1.0e-03");
  passes "good occupancy rows" (occupancy "0.4786" "0.5374");
  trips "lower > upper row" (occupancy "0.5374" "0.4786");
  passes "good named loss column" (priority "0");
  trips "named loss column out of range" (priority "2.5");
  trips "named loss column NaN" (priority "nan");
  passes "ordered loss bounds" "loss bounds:  n=5: [1.038e-03, 4.863e-03]";
  trips "crossed loss bounds" "loss bounds:  n=5: [4.863e-03, 1.038e-03]";
  trips "loss bound above one" "loss=0.1083 in [0.1022, 1.5]";
  passes "non-loss interval may exceed one" "occupancy quantiles: median in [0.4375, 0.5938]; p99 in [2, 2]";
  trips "crossed non-loss interval" "mean virtual delay: certified [0.6303, 0.5535] s";
  passes "solver table" (solver_table "0.013")

let params = Lrd_core.Solver.default_params

let cell ?(converged = true) lo hi =
  {
    Lrd_core.Solver.loss = (lo +. hi) /. 2.0;
    lower_bound = lo;
    upper_bound = hi;
    iterations = 1;
    bins = 1;
    refinements = 0;
    converged;
  }

let cell_checks () =
  let ok name c = Alcotest.check problems name [] (Check.cells ~params [ c ]) in
  let bad name c = Alcotest.(check int) name 1 (List.length (Check.cells ~params [ c ])) in
  ok "within the gap target" (cell 1.0e-3 1.1e-3);
  bad "lower > upper" (cell 1.1e-3 1.0e-3);
  bad "gap above target" (cell 1.0e-3 2.0e-3);
  ok "budget-flagged cell may keep a wide gap" (cell ~converged:false 1.0e-3 2.0e-3);
  ok "certified zero at rounding level" (cell 3.7e-19 4.0e-20);
  bad "lower bound contradicts a certified zero" (cell 1.0e-6 4.0e-20);
  bad "NaN bound" (cell Float.nan 1.0e-3);
  bad "bound above one" (cell 0.5 1.5)

let fingerprints () =
  let d = Fingerprint.digest in
  Alcotest.(check string) "wall-clock column ignored" (d (solver_table "0.013"))
    (d (solver_table "0.109"));
  Alcotest.(check bool) "a changed loss changes the digest" true
    (d (surface "8.845e-04") <> d (surface "8.846e-04"));
  Alcotest.(check string) "completed line ignored"
    (d "Fig. 2\nrow 1\n[fig2 completed in 0.01 s CPU]")
    (d "Fig. 2\nrow 1\n[fig2 completed in 0.05 s CPU]")

let partition () =
  let ids = List.concat_map (fun (w : Workloads.t) -> w.ids) Workloads.all in
  let registry = List.map (fun (e : Lrd_experiments.Registry.entry) -> e.id) Lrd_experiments.Registry.all in
  Alcotest.(check (list string)) "every experiment in exactly one workload"
    (List.sort compare registry) (List.sort compare ids)

(* Results never depend on the number of domains; the digests make that
   checkable at full table precision. *)
let model_jobs () =
  let run jobs =
    Measure.run ~jobs ~workload:Workloads.model ~seed:5L ~quick:true ()
  in
  let r1 = run 1 and r2 = run 2 in
  List.iter
    (fun (x : Measure.experiment) -> Alcotest.check problems x.id [] x.problems)
    (r1.experiments @ r2.experiments);
  let digests (r : Measure.t) = List.map (fun (x : Measure.experiment) -> (x.id, x.digest)) r.experiments in
  Alcotest.(check (list (pair string string))) "digests at jobs 1 and 2" (digests r1) (digests r2)

let () =
  Alcotest.run "perfbench"
    [
      ( "check",
        [
          Alcotest.test_case "text" `Quick text_checks;
          Alcotest.test_case "certified cells" `Quick cell_checks;
        ] );
      ("fingerprint", [ Alcotest.test_case "digest" `Quick fingerprints ]);
      ( "workloads",
        [
          Alcotest.test_case "partition" `Quick partition;
          Alcotest.test_case "model digests at jobs 1 and 2" `Slow model_jobs;
        ] );
    ]
