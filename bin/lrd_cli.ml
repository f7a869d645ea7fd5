(* lrd: command-line front end.

   Subcommands:
     solve       loss rate of a finite-buffer queue fed by the cutoff
                 fluid model (marginal from a trace file or built-in)
     trace       generate a synthetic trace (video / ethernet / fgn / dar)
     hurst       estimate the Hurst parameter of a trace, four ways
     simulate    trace-driven fluid-queue simulation, optionally shuffled
     experiment  run paper figures / ablations by id *)

open Cmdliner

(* A malformed file, and a well-formed one whose rates [Trace.create]
   rejects (negative, nan), are both command errors (exit 2). *)
let read_trace path =
  try Ok (Lrd_trace.Trace_io.load ~path)
  with Failure msg | Sys_error msg | Invalid_argument msg -> Error msg

let builtin_marginal ctx = function
  | "mtv" -> Ok (Lrd_experiments.Data.mtv_marginal ctx)
  | "bellcore" -> Ok (Lrd_experiments.Data.bc_marginal ctx)
  | other ->
      Error
        (Printf.sprintf
           "unknown built-in marginal %S (expected mtv or bellcore)" other)

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_arg =
  let doc = "Seed for all randomness (trace synthesis, shuffling)." in
  Arg.(value & opt int64 20260705L & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Use small synthetic traces (fast, less statistics)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Range-checked converters for the model flags.  An out-of-range value
   is a command-line error naming the flag (exit 2), in every subcommand
   that takes it, instead of a library [Invalid_argument] escaping the
   run. *)
let float_in ~range ok =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not in %s" s range))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let utilization = float_in ~range:"(0, 1)" (fun v -> v > 0.0 && v < 1.0)
let hurst = float_in ~range:"(0.5, 1)" (fun v -> v > 0.5 && v < 1.0)
let seconds = float_in ~range:"(0, inf)" (fun v -> v > 0.0 && Float.is_finite v)
let cutoff = float_in ~range:"(0, inf]" (fun v -> v > 0.0)

let utilization_arg =
  let doc = "Server utilization (mean rate / service rate), in (0, 1)." in
  Arg.(value & opt utilization 0.8 & info [ "u"; "utilization" ] ~docv:"U" ~doc)

let buffer_arg =
  let doc = "Normalized buffer size in seconds (buffer = B * service rate), \
             positive." in
  Arg.(value & opt seconds 1.0 & info [ "b"; "buffer" ] ~docv:"SECONDS" ~doc)

let hurst_arg =
  let doc = "Hurst parameter in (0.5, 1); alpha = 3 - 2H." in
  Arg.(value & opt hurst 0.83 & info [ "H"; "hurst" ] ~docv:"H" ~doc)

let cutoff_arg =
  let doc = "Cutoff lag T_c in seconds (correlation is zero beyond); \
             $(b,inf) for the untruncated self-similar model." in
  Arg.(value & opt cutoff Float.infinity & info [ "cutoff" ] ~docv:"TC" ~doc)

let trace_file_arg =
  let doc = "Input trace file (as written by $(b,lrd trace)); its 50-bin \
             histogram becomes the marginal and its mean rate-residence \
             epoch sets theta.  (Not to be confused with $(b,--trace), \
             which enables timeline tracing.)" in
  Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by the compute-heavy subcommands.

   [--metrics text|json] turns the Obs layer on for the whole run and
   prints one aggregated snapshot (solver convergence, pool scheduling,
   cache traffic) to stdout afterwards; [--metrics-out FILE] redirects
   the snapshot to a file and implies JSON unless a format was given. *)

let metrics_format_arg =
  let doc =
    "Enable telemetry and print a metrics snapshot after the run; $(docv) \
     is $(b,text) or $(b,json)."
  in
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics snapshot to $(docv) instead of stdout (implies \
     $(b,--metrics json) unless a format is given)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* [--trace FILE] / [--trace-out FILE] — one shared argument, both
   spellings accepted on every compute-heavy subcommand (input trace
   files are [--trace-file], so the spellings never collide) — turns
   timeline tracing on for the run and exports the merged journal as
   Chrome trace-event JSON.  Tracing and metrics are independent
   switches: when both are given, each output goes to its own
   destination (the trace never lands on stdout). *)
let trace_out_arg =
  let doc =
    "Enable timeline tracing for the run and write the merged event \
     journal to $(docv) as Chrome trace-event JSON (open it in Perfetto \
     or chrome://tracing).  $(b,--trace-out) is an accepted alias.  \
     Independent of $(b,--metrics): giving both writes both, each to \
     its own destination."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace"; "trace-out" ] ~docv:"FILE" ~doc)

(* [--metrics-interval SECS] — stream timestamped snapshot lines to a
   JSONL file while the run is in flight (one line per tick, plus one
   at start and one at exit), so long runs produce a time series
   instead of a single exit snapshot.  The ticker file sits next to
   [--metrics-out FILE] as FILE minus extension + ".ticker.jsonl", or
   defaults to lrd-metrics.ticker.jsonl. *)
let metrics_interval_arg =
  let doc =
    "Enable telemetry and append a timestamped metrics snapshot line \
     (JSONL) every $(docv) seconds to a ticker file (next to \
     $(b,--metrics-out), else $(b,lrd-metrics.ticker.jsonl)).  With \
     $(b,--shards) the driver also prints per-shard heartbeat lines at \
     the same period."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-interval" ] ~docv:"SECS" ~doc)

let ticker_path ~metrics_out =
  match metrics_out with
  | Some f -> Filename.remove_extension f ^ ".ticker.jsonl"
  | None -> "lrd-metrics.ticker.jsonl"

(* One snapshot per run.  After [f] has returned — and so after any
   [Data.teardown] inside it, whose stopping pool records the workers'
   last idle spans — and after the ticker's final tick, the snapshot is
   taken once, handed to [!seal] (set by [f] to write the run manifest)
   and rendered as the --metrics output, so the manifest and
   --metrics-out describe the same moment. *)
let with_telemetry ?metrics_interval ?trace_out ?(seal = ref ignore) format
    out f =
  let wanted = format <> None || out <> None in
  if wanted || metrics_interval <> None then Lrd_obs.Obs.set_enabled true;
  if trace_out <> None then Lrd_obs.Obs.Trace.set_enabled true;
  (match metrics_interval with
  | None -> ()
  | Some interval -> (
      match
        Lrd_obs.Export.start_ticker ~interval
          ~path:(ticker_path ~metrics_out:out)
      with
      | Ok () -> ()
      | Error e ->
          prerr_endline ("lrd: --metrics-interval: " ^ e);
          exit 2));
  let result =
    Fun.protect
      ~finally:(fun () ->
        if metrics_interval <> None then Lrd_obs.Export.stop_ticker ())
      f
  in
  let snapshot =
    if Lrd_obs.Obs.enabled () then Some (Lrd_obs.Obs.snapshot ()) else None
  in
  !seal snapshot;
  (match (wanted, snapshot) with
  | true, Some snap -> (
      let rendered =
        match format with
        | Some `Text -> Format.asprintf "%a" Lrd_obs.Obs.pp_text snap
        | Some `Json | None -> Lrd_obs.Obs.to_json snap
      in
      match out with
      | None -> print_string rendered
      | Some file ->
          let oc = open_out file in
          output_string oc rendered;
          close_out oc)
  | _ -> ());
  (match trace_out with
  | None -> ()
  | Some file ->
      Lrd_obs.Obs.Trace.set_enabled false;
      let oc = open_out file in
      output_string oc (Lrd_obs.Obs.Trace.to_chrome_json ());
      close_out oc);
  result

(* ------------------------------------------------------------------ *)
(* solve *)

let solve_cmd =
  let marginal_arg =
    let doc = "Built-in marginal: mtv or bellcore (synthetic trace \
               histograms).  Ignored when --trace-file is given." in
    Arg.(value & opt string "mtv" & info [ "marginal" ] ~docv:"NAME" ~doc)
  in
  let epoch_arg =
    let doc = "Mean epoch duration in seconds used to match theta (eq. 25) \
               when no trace is given; defaults to the built-in trace's \
               measured value." in
    Arg.(
      value & opt (some seconds) None & info [ "epoch" ] ~docv:"SECONDS" ~doc)
  in
  let run quick seed utilization buffer hurst cutoff marginal_name trace epoch
      metrics metrics_out trace_out =
    with_telemetry ?trace_out metrics metrics_out @@ fun () ->
    let ctx = Lrd_experiments.Data.create ~seed ~quick () in
    let model_result =
      match trace with
      | Some path ->
          Result.map
            (fun t -> Lrd_core.Model.fit_from_trace ~hurst ~cutoff t)
            (read_trace path)
      | None ->
          Result.map
            (fun marginal ->
              let mean_epoch =
                match epoch with
                | Some e -> e
                | None ->
                    if marginal_name = "bellcore" then
                      Lrd_experiments.Data.bc_mean_epoch ctx
                    else Lrd_experiments.Data.mtv_mean_epoch ctx
              in
              let theta =
                Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch
                  ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
                  ()
              in
              Lrd_core.Model.of_hurst ~marginal ~hurst ~theta ~cutoff)
            (builtin_marginal ctx marginal_name)
    in
    match model_result with
    | Error msg -> `Error (false, msg)
    | Ok model ->
        Format.printf "model: %a@." Lrd_core.Model.pp model;
        let c =
          Lrd_core.Model.service_rate_for_utilization model ~utilization
        in
        Format.printf "service rate: %.6g, buffer: %.6g (%g s)@." c
          (buffer *. c) buffer;
        let result =
          Lrd_core.Solver.solve_utilization model ~utilization
            ~buffer_seconds:buffer
        in
        Format.printf "%a@." Lrd_core.Solver.pp_result result;
        let horizon =
          Lrd_core.Horizon.estimate_for_model model ~buffer:(buffer *. c)
        in
        if Float.is_finite horizon && horizon > 0.0 then
          Format.printf "correlation horizon estimate (eq. 26): %.4g s@."
            horizon
        else
          Format.printf
            "correlation horizon estimate: unavailable (infinite epoch \
             variance at this cutoff)@.";
        `Ok ()
  in
  let doc = "solve the finite-buffer fluid queue for the loss rate" in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ utilization_arg $ buffer_arg
       $ hurst_arg $ cutoff_arg $ marginal_arg $ trace_file_arg $ epoch_arg
       $ metrics_format_arg $ metrics_out_arg
       $ trace_out_arg))

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let kind_arg =
    let doc = "Kind: video (MTV-like, scene based), ethernet \
               (Bellcore-like on/off aggregate), fgn (video marginal via \
               fractional Gaussian noise), farima (FARIMA(0, 0.3, 0) \
               rates), mginf (M/G/inf session traffic), dar (DAR(1) with \
               the video marginal)." in
    Arg.(value & opt string "video" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let slots_arg =
    let doc = "Number of trace samples (0 = the paper-scale default)." in
    Arg.(value & opt int 0 & info [ "n"; "slots" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run seed kind slots out =
    let rng = Lrd_rng.Rng.create ~seed in
    let trace =
      match kind with
      | "video" ->
          if slots > 0 then Lrd_trace.Video.generate_short rng ~n:slots
          else Lrd_trace.Video.generate rng
      | "ethernet" ->
          if slots > 0 then Lrd_trace.Ethernet.generate_short rng ~n:slots
          else Lrd_trace.Ethernet.generate rng
      | "fgn" ->
          let params =
            if slots > 0 then { Lrd_trace.Video.mtv_like with frames = slots }
            else Lrd_trace.Video.mtv_like
          in
          Lrd_trace.Video.generate_fgn ~params rng
      | "farima" ->
          (* Zero-mean FARIMA shifted to a positive rate floor of 10. *)
          let n = if slots > 0 then slots else 65_536 in
          let xs = Lrd_trace.Farima.generate rng ~d:0.3 ~n in
          Lrd_trace.Trace.create
            ~rates:(Array.map (fun v -> Float.max 0.0 (10.0 +. v)) xs)
            ~slot:0.01
      | "mginf" ->
          Lrd_trace.Mginf.generate rng
            ~slots:(if slots > 0 then slots else 65_536)
            ~slot:0.01
      | "dar" ->
          let marginal =
            Lrd_trace.Histogram.marginal_of_trace ~bins:50
              (Lrd_trace.Video.generate_short rng ~n:16_384)
          in
          let dar = Lrd_baselines.Dar.create ~marginal ~rho:0.6 in
          Lrd_baselines.Dar.generate dar rng
            ~slots:(if slots > 0 then slots else 107_892)
            ~slot:(1.0 /. 30.0)
      | other -> failwith (Printf.sprintf "unknown trace kind %S" other)
    in
    Lrd_trace.Trace_io.save trace ~path:out;
    Format.printf
      "wrote %d samples (slot %.4g s, mean %.4g, std %.4g, peak %.4g) to %s@."
      (Lrd_trace.Trace.length trace)
      trace.Lrd_trace.Trace.slot
      (Lrd_trace.Trace.mean trace)
      (Lrd_trace.Trace.std trace)
      (Lrd_trace.Trace.peak trace)
      out
  in
  (* `lrd trace` is a group whose default term is the generator, so the
     historical flat spelling (lrd trace --kind video -o FILE) keeps
     working next to the analysis subcommands. *)
  let generate_term =
    Term.(const run $ seed_arg $ kind_arg $ slots_arg $ out_arg)
  in
  let report_cmd =
    let file_arg =
      let doc = "Chrome trace-event journal to analyze (a --trace output)." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let json_arg =
      let doc =
        "Print the full report as deterministic JSON (schema \
         $(b,lrd-trace-report/1)) instead of the text summary — \
         byte-identical across reruns of the same journal."
      in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let top_arg =
      let doc = "Number of slowest cells to list." in
      Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
    in
    let compare_arg =
      let doc =
        "A/B mode: also load the baseline journal $(docv) and print \
         per-phase totals side by side with ratios."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "compare" ] ~docv:"BASELINE" ~doc)
    in
    let run file json top compare =
      match Lrd_obs.Report.of_file file with
      | Error e -> `Error (false, e)
      | Ok current -> (
          match compare with
          | Some base_file -> (
              match Lrd_obs.Report.of_file base_file with
              | Error e -> `Error (false, e)
              | Ok base ->
                  if json then
                    print_endline
                      (Lrd_obs.Json.to_string ~pretty:true
                         (Lrd_obs.Json.Obj
                            [
                              ("schema", Lrd_obs.Json.Str Lrd_obs.Report.schema);
                              ("base", Lrd_obs.Report.to_json ~top base);
                              ( "current",
                                Lrd_obs.Report.to_json ~top current );
                            ]))
                  else
                    print_string
                      (Lrd_obs.Report.render_compare ~base ~current);
                  `Ok ())
          | None ->
              if json then
                print_endline
                  (Lrd_obs.Json.to_string ~pretty:true
                     (Lrd_obs.Report.to_json ~top current))
              else print_string (Lrd_obs.Report.render ~top current);
              `Ok ())
    in
    let doc =
      "analyze a timeline trace: per-phase aggregates, per-domain \
       utilization, steal ratios, slowest cells and the sweep critical \
       path"
    in
    Cmd.v (Cmd.info "report" ~doc)
      Term.(ret (const run $ file_arg $ json_arg $ top_arg $ compare_arg))
  in
  let doc = "generate synthetic traffic traces and analyze run timelines" in
  Cmd.group ~default:generate_term (Cmd.info "trace" ~doc) [ report_cmd ]

(* ------------------------------------------------------------------ *)
(* hurst *)

let hurst_cmd =
  let file_arg =
    let doc = "Trace file to analyze." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace -> (
        (* A trace too short for an estimator is a command error. *)
        try
          let rates = trace.Lrd_trace.Trace.rates in
          let report name (fit : Lrd_stats.Hurst.fit) =
            Format.printf "%-24s H = %.3f (slope %.3f over %d points)@." name
              fit.Lrd_stats.Hurst.hurst fit.Lrd_stats.Hurst.slope
              (Array.length fit.Lrd_stats.Hurst.xs)
          in
          report "aggregated variance" (Lrd_stats.Hurst.aggregated_variance rates);
          report "rescaled range (R/S)" (Lrd_stats.Hurst.rescaled_range rates);
          report "GPH log-periodogram" (Lrd_stats.Hurst.gph rates);
          report "Abry-Veitch wavelet" (Lrd_stats.Hurst.abry_veitch rates);
          let whittle = Lrd_stats.Whittle.local_whittle rates in
          Format.printf "%-24s H = %.3f (d = %.3f over %d frequencies)@."
            "local Whittle" whittle.Lrd_stats.Whittle.hurst
            whittle.Lrd_stats.Whittle.memory
            whittle.Lrd_stats.Whittle.frequencies;
          Format.printf "mean rate-residence epoch (50 bins): %.4g s@."
            (Lrd_trace.Epochs.mean_epoch_duration ~bins:50 trace);
          Format.printf
            "@.logscale diagram (log2 energy per octave, 95%% bands):@.";
          Array.iter
            (fun p ->
              Format.printf "  octave %2d: %8.3f  [%7.3f, %7.3f]  (%d coeffs)@."
                p.Lrd_stats.Hurst.octave p.Lrd_stats.Hurst.log2_energy
                p.Lrd_stats.Hurst.ci_low p.Lrd_stats.Hurst.ci_high
                p.Lrd_stats.Hurst.coefficients)
            (Lrd_stats.Hurst.logscale_diagram rates);
          `Ok ()
        with Invalid_argument msg | Failure msg -> `Error (false, msg))
  in
  let doc = "estimate the Hurst parameter of a trace, four ways" in
  Cmd.v (Cmd.info "hurst" ~doc) Term.(ret (const run $ file_arg))

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let file_arg =
    let doc = "Trace file to feed the queue." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let block_arg =
    let doc = "Externally shuffle with this block size (samples) first." in
    Arg.(value & opt (some int) None & info [ "block" ] ~docv:"SAMPLES" ~doc)
  in
  let run seed utilization buffer block path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let trace =
          match block with
          | None -> trace
          | Some b ->
              Lrd_trace.Shuffle.external_shuffle
                (Lrd_rng.Rng.create ~seed)
                trace ~block:b
        in
        let c =
          Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
        in
        let sim =
          Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| buffer *. c |]
        in
        let stats = (Lrd_fluidsim.Queue_sim.run_trace sim trace).(0) in
        Format.printf
          "loss rate %.6g (lost %.6g of %.6g work; achieved utilization \
           %.4f; max occupancy %.4g of %.4g)@."
          (Lrd_fluidsim.Queue_sim.loss_rate stats)
          stats.Lrd_fluidsim.Queue_sim.lost
          stats.Lrd_fluidsim.Queue_sim.arrived
          (Lrd_fluidsim.Queue_sim.utilization stats ~service_rate:c)
          stats.Lrd_fluidsim.Queue_sim.max_occupancy (buffer *. c);
        `Ok ()
  in
  let doc = "trace-driven finite-buffer fluid-queue simulation" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ utilization_arg $ buffer_arg $ block_arg
       $ file_arg))

(* ------------------------------------------------------------------ *)
(* fit *)

let fit_cmd =
  let file_arg =
    let doc = "Trace file to fit." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let hurst_arg =
    let doc = "Hurst parameter (default: wavelet estimate from the trace)." in
    Arg.(value & opt (some hurst) None & info [ "H"; "hurst" ] ~docv:"H" ~doc)
  in
  let run utilization buffer hurst path metrics metrics_out trace_out =
    with_telemetry ?trace_out metrics metrics_out @@ fun () ->
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let model, cutoff =
          Lrd_core.Fitting.for_buffer ?hurst trace ~utilization
            ~buffer_seconds:buffer
        in
        Format.printf
          "horizon-fitted model for B = %g s at utilization %g:@." buffer
          utilization;
        Format.printf "  %a@." Lrd_core.Model.pp model;
        Format.printf
          "  cutoff lag = correlation horizon = %.4g s (eq. 26, p = 0.01)@."
          cutoff;
        let result =
          Lrd_core.Solver.solve_utilization model ~utilization
            ~buffer_seconds:buffer
        in
        Format.printf "  predicted %a@." Lrd_core.Solver.pp_result result;
        (* Cross-check against the trace itself. *)
        let c =
          Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
        in
        let sim =
          Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| buffer *. c |]
        in
        let stats = (Lrd_fluidsim.Queue_sim.run_trace sim trace).(0) in
        Format.printf "  trace-driven simulation: %.4g@."
          (Lrd_fluidsim.Queue_sim.loss_rate stats);
        `Ok ()
  in
  let doc =
    "fit the most parsimonious adequate model for a target queue \
     (cutoff = its correlation horizon)"
  in
  Cmd.v (Cmd.info "fit" ~doc)
    Term.(
      ret
        (const run $ utilization_arg $ buffer_arg $ hurst_arg $ file_arg
       $ metrics_format_arg $ metrics_out_arg
       $ trace_out_arg))

(* ------------------------------------------------------------------ *)
(* ams *)

let ams_cmd =
  let sources_arg =
    let doc = "Number of on/off sources." in
    Arg.(value & opt int 6 & info [ "n"; "sources" ] ~docv:"N" ~doc)
  in
  let on_rate_arg =
    let doc = "Rate emitted while ON." in
    Arg.(value & opt float 1.0 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let lambda_arg =
    let doc = "OFF -> ON transition rate." in
    Arg.(value & opt float 1.0 & info [ "lambda" ] ~docv:"L" ~doc)
  in
  let mu_arg =
    let doc = "ON -> OFF transition rate." in
    Arg.(value & opt float 2.0 & info [ "mu" ] ~docv:"M" ~doc)
  in
  let service_arg =
    let doc = "Service rate (must avoid the lattice j * rate)." in
    Arg.(value & opt float 2.7 & info [ "c"; "service" ] ~docv:"C" ~doc)
  in
  let levels_arg =
    let doc = "Buffer levels to evaluate." in
    Arg.(
      value
      & opt (list float) [ 0.5; 1.0; 2.0; 4.0 ]
      & info [ "levels" ] ~docv:"LEVELS" ~doc)
  in
  let run sources on_rate lambda mu service_rate levels =
    try
      let sys =
        Lrd_baselines.Ams.create ~sources ~on_rate ~lambda ~mu ~service_rate
      in
      Format.printf
        "mean rate %.4g, utilization %.4f; negative eigenvalues:"
        (Lrd_baselines.Ams.mean_rate sys)
        (Lrd_baselines.Ams.utilization sys);
      Array.iter
        (fun z -> Format.printf " %.5g" z)
        (Lrd_baselines.Ams.negative_eigenvalues sys);
      Format.printf "@.%10s %16s %16s@." "level" "P(Q > level)"
        "loss at B=level";
      List.iter
        (fun level ->
          Format.printf "%10g %16.6e %16.6e@." level
            (Lrd_baselines.Ams.overflow_probability sys ~level)
            (Lrd_baselines.Ams.finite_buffer_loss sys ~buffer:level))
        levels;
      `Ok ()
    with Invalid_argument msg | Failure msg -> `Error (false, msg)
  in
  let doc =
    "exact Anick-Mitra-Sondhi analysis of N exponential on/off sources"
  in
  Cmd.v (Cmd.info "ams" ~doc)
    Term.(
      ret
        (const run $ sources_arg $ on_rate_arg $ lambda_arg $ mu_arg
       $ service_arg $ levels_arg))

(* ------------------------------------------------------------------ *)
(* stationarity *)

let stationarity_cmd =
  let file_arg =
    let doc = "Trace file to diagnose." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run seed path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let data = trace.Lrd_trace.Trace.rates in
        let rng = Lrd_rng.Rng.create ~seed in
        let cusum = Lrd_stats.Stationarity.cusum data in
        Format.printf
          "CUSUM statistic %.3f (short-memory 5%% critical value %.3f), \
           change point at sample %d@."
          cusum.Lrd_stats.Stationarity.statistic
          cusum.Lrd_stats.Stationarity.critical_5pct
          cusum.Lrd_stats.Stationarity.change_point;
        Format.printf "split-half mean shift: %.2f standard errors@."
          (Lrd_stats.Stationarity.split_half_mean_shift data);
        let wavelet = (Lrd_stats.Hurst.abry_veitch data).Lrd_stats.Hurst.hurst in
        let surrogate =
          Lrd_stats.Stationarity.phase_randomized_surrogate rng data
        in
        let surrogate_h =
          (Lrd_stats.Hurst.abry_veitch surrogate).Lrd_stats.Hurst.hurst
        in
        Format.printf
          "wavelet H: %.3f (trace) vs %.3f (phase-randomized surrogate)@."
          wavelet surrogate_h;
        Format.printf
          "(H surviving phase randomization favours genuine linear LRD; a \
           CUSUM far beyond the critical value with a collapsing surrogate \
           H favours level shifts - and under true LRD the CUSUM \
           normalization over-rejects, which is the ambiguity the paper \
           describes)@.";
        `Ok ()
  in
  let doc = "LRD-vs-level-shift stationarity diagnostics for a trace" in
  Cmd.v (Cmd.info "stationarity" ~doc)
    Term.(ret (const run $ seed_arg $ file_arg))

(* ------------------------------------------------------------------ *)
(* provision *)

let provision_cmd =
  let target_arg =
    let doc = "Target loss rate, in [1e-10, 1)." in
    Arg.(value & opt float 1e-6 & info [ "target" ] ~docv:"LOSS" ~doc)
  in
  let knob_arg =
    let doc = "Knob to invert: buffer, utilization, or streams." in
    Arg.(value & opt string "buffer" & info [ "knob" ] ~docv:"KNOB" ~doc)
  in
  let marginal_arg =
    let doc = "Built-in marginal: mtv or bellcore." in
    Arg.(value & opt string "mtv" & info [ "marginal" ] ~docv:"NAME" ~doc)
  in
  let run quick seed utilization buffer knob marginal_name trace hurst cutoff
      target =
    let ctx = Lrd_experiments.Data.create ~seed ~quick () in
    let model_result =
      match trace with
      | Some path ->
          Result.map
            (fun t -> Lrd_core.Model.fit_from_trace ~hurst ~cutoff t)
            (read_trace path)
      | None ->
          Result.map
            (fun marginal ->
              let mean_epoch =
                if marginal_name = "bellcore" then
                  Lrd_experiments.Data.bc_mean_epoch ctx
                else Lrd_experiments.Data.mtv_mean_epoch ctx
              in
              let theta =
                Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch
                  ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
                  ()
              in
              Lrd_core.Model.of_hurst ~marginal ~hurst ~theta ~cutoff)
            (builtin_marginal ctx marginal_name)
    in
    match model_result with
    | Error msg -> `Error (false, msg)
    | Ok model -> (
        let describe label = function
          | Lrd_core.Provision.Achieved v ->
              Format.printf "%s: %.5g@." label v
          | Lrd_core.Provision.Unachievable_within v ->
              Format.printf "%s: not achievable within %.5g@." label v
        in
        try
          (match knob with
          | "buffer" ->
              describe "required buffer (seconds)"
                (Lrd_core.Provision.buffer_for_loss model ~utilization
                   ~target)
          | "utilization" ->
              describe "maximum utilization"
                (Lrd_core.Provision.utilization_for_loss model
                   ~buffer_seconds:buffer ~target)
          | "streams" ->
              describe "required multiplexed streams"
                (Lrd_core.Provision.streams_for_loss model ~utilization
                   ~buffer_seconds:buffer ~target)
          | other ->
              failwith
                (Printf.sprintf
                   "unknown knob %S (expected buffer, utilization, streams)"
                   other));
          `Ok ()
        with Failure msg | Invalid_argument msg -> `Error (false, msg))
  in
  let doc = "invert the solver: parameter needed to meet a loss target" in
  Cmd.v (Cmd.info "provision" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ utilization_arg $ buffer_arg
       $ knob_arg $ marginal_arg $ trace_file_arg $ hurst_arg $ cutoff_arg
       $ target_arg))

(* ------------------------------------------------------------------ *)
(* experiment — including the process-sharding modes.

   One figure grid can be split across worker processes:

     lrd experiment fig12 --shard 1/2 --out DIR   one worker's rows
     lrd experiment fig12 --shards 2  --out DIR   self-exec both, merge
     lrd experiment fig12 --merge DIR             merge existing shards

   Rows are the unit of determinism (warm-start chains never cross
   them), so the merged results are byte-identical to the whole run's.
   Exit codes follow `lrd metrics diff`: 2 on malformed or mismatched
   shard files, 1 when a worker still fails after its retries. *)

let superpose_name = function
  | Lrd_core.Superpose.Exact -> "exact"
  | Lrd_core.Superpose.Edgeworth -> "edgeworth"
  | Lrd_core.Superpose.Auto -> "auto"

(* The parameter digest shards are stamped with.  Computed from a
   throwaway sequential context: the digest excludes "jobs", and shard
   modes require the uniform gap policy, so (seed, quick, superpose)
   determine it fully. *)
let shard_digest ~quick ~seed ~superpose id =
  let ctx = Lrd_experiments.Data.create ~seed ~superpose ~quick () in
  Lrd_experiments.Shard.digest ~figure:id
    (Lrd_experiments.Data.manifest_fields ctx)

(* Worker: compute one shard's rows, then write the partial results,
   the cells payload, the metrics snapshot and — last, sealing the
   checkpoint — the shard manifest. *)
let run_shard_worker ~quick ~seed ~jobs ~superpose ~dir ~spec id =
  let module E = Lrd_experiments in
  E.Shard.ensure_dir dir;
  (* The shard metrics snapshot is part of the checkpoint (the merge
     sums the counters), so the worker records telemetry regardless of
     its own --metrics flags. *)
  Lrd_obs.Obs.set_enabled true;
  let sh = E.Shard.compute spec in
  let ctx = E.Data.create ~seed ~jobs ~superpose ~shard:sh ~quick () in
  Fun.protect
    ~finally:(fun () -> E.Data.teardown ctx)
    (fun () ->
      ignore
        (E.Registry.run ~only:[ id ]
           ~results:(E.Shard.results_path ~dir spec)
           ctx Format.std_formatter
          : E.Registry.summary));
  let digest = E.Shard.digest ~figure:id (E.Data.manifest_fields ctx) in
  E.Shard.write_cells sh ~dir ~figure:id ~digest;
  let snapshot = Lrd_obs.Obs.to_json (Lrd_obs.Obs.snapshot ()) in
  let oc = open_out (E.Shard.metrics_path ~dir spec) in
  output_string oc snapshot;
  close_out oc;
  let metrics =
    match Lrd_obs.Json.parse snapshot with Ok v -> Some v | Error _ -> None
  in
  Lrd_obs.Manifest.write
    (E.Shard.manifest_path ~dir spec)
    (Lrd_obs.Manifest.make ~schema:Lrd_obs.Manifest.shard_schema
       ~figures:[ id ]
       ~parameters:(E.Data.manifest_fields ctx)
       ~extra:(E.Shard.shard_section sh ~figure:id ~digest)
       ?metrics ~tool:"lrd experiment --shard" ())

(* The seal of a finished registry run (see [with_telemetry]):
   writes the requested manifest from the run's one snapshot. *)
let manifest_seal manifest ctx summary snapshot =
  Option.iter
    (fun path ->
      Lrd_experiments.Registry.write_manifest ?snapshot path ctx summary)
    manifest

(* Merge: validate + load the shard set, replay the figure against the
   merged store (byte-identical output, no solver work), and sum the
   shard counters into merged.metrics.json.  Exit 2 on any malformed or
   mismatched input, like `lrd metrics diff`.  Returns the per-shard
   records and the run's manifest seal. *)
let run_shard_merge ~quick ~seed ~jobs ~superpose ~manifest ~digest ~dir id =
  let module E = Lrd_experiments in
  match E.Shard.load ~dir ~figure:id ~digest with
  | Error msg ->
      prerr_endline ("lrd experiment --merge: " ^ msg);
      exit 2
  | Ok (replay, per_shard) ->
      let ctx = E.Data.create ~seed ~jobs ~superpose ~shard:replay ~quick () in
      let summary =
        Fun.protect
          ~finally:(fun () -> E.Data.teardown ctx)
          (fun () ->
            E.Registry.run ~only:[ id ]
              ~results:(E.Shard.merged_results_path ~dir)
              ctx Format.std_formatter)
      in
      (match E.Shard.write_merged_metrics ~dir per_shard with
      | Ok () -> ()
      | Error msg ->
          prerr_endline ("lrd experiment --merge: " ^ msg);
          exit 2);
      (per_shard, manifest_seal manifest ctx summary)

(* Driver: self-exec one worker per shard, wait (with bounded
   restart-on-failure), then merge.  --resume skips shards whose
   checkpoint manifest still matches.  Exit 1 when a shard fails for
   good.  Returns the merge's manifest seal. *)
let run_shard_driver ?heartbeat ~quick ~seed ~jobs ~superpose ~manifest ~dir
    ~count ~resume ~retries id =
  let module E = Lrd_experiments in
  let digest = shard_digest ~quick ~seed ~superpose id in
  let worker_argv spec =
    [
      "experiment";
      id;
      "--shard";
      E.Shard.spec_string spec;
      "--out";
      dir;
      "--seed";
      Int64.to_string seed;
      "--jobs";
      string_of_int jobs;
      "--superpose";
      superpose_name superpose;
    ]
    @ (if quick then [ "--quick" ] else [])
  in
  match
    E.Shard.drive ?heartbeat ~dir ~figure:id ~digest ~count ~resume ~retries
      ~worker_argv ()
  with
  | Error msg ->
      prerr_endline ("lrd experiment --shards: " ^ msg);
      exit 1
  | Ok skipped ->
      let per_shard, seal =
        run_shard_merge ~quick ~seed ~jobs ~superpose ~manifest ~digest ~dir
          id
      in
      E.Shard.record_counters ~per_shard ~skipped;
      seal

let experiment_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (default: all).  Use $(b,list) to \
               print the available ids." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc = "Total parallelism for the sweep grids: 1 runs \
               sequentially (the default), 0 auto-sizes to the machine, \
               N >= 2 spreads grid cells over N domains.  Results are \
               identical for every value." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let gap_policy_arg =
    let doc =
      "Error-budget policy for the scheduled figure sweeps: \
       $(b,uniform) converges every grid cell to the solver's own 20% \
       gap target; $(b,contrast:D) stops refining a cell once its \
       certified upper bound sits D decades below the largest lower \
       bound on the surface, where it can no longer change the plotted \
       contrast.  Bare $(b,contrast) derives D from the figure's own \
       loss axis: one decade below the smallest plotted value (floored \
       at 2 decades).  Either way every reported bound stays certified."
    in
    Arg.(
      value
      & opt string "uniform"
      & info [ "gap-policy" ] ~docv:"POLICY" ~doc)
  in
  let iteration_budget_arg =
    let doc =
      "Hard cap on the total chain iterations each figure surface may \
       spend; when it runs out, remaining cells report their latest \
       certified (possibly loose) bounds.  Composes with \
       $(b,--gap-policy)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "iteration-budget" ] ~docv:"N" ~doc)
  in
  let manifest_arg =
    let doc =
      "Write a run provenance manifest to $(docv): the figure ids run, \
       the full parameter set (seed, jobs, solver parameters, sweep \
       grids), git revision + dirty flag, OCaml version, wall time, and \
       the final metrics snapshot when $(b,--metrics) is on.  Two runs \
       with the same seed and flags produce identical manifests modulo \
       the generated_at_unix / wall_seconds lines."
    in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let parse_gap_policy s iteration_budget =
    let contrast c =
      Ok { Lrd_experiments.Sweep.contrast = Some c; iteration_budget }
    in
    match String.lowercase_ascii s with
    | "uniform" ->
        Ok { Lrd_experiments.Sweep.contrast = None; iteration_budget }
    | "contrast" -> contrast Lrd_experiments.Sweep.From_axis
    | other -> (
        match String.index_opt other ':' with
        | Some i when String.sub other 0 i = "contrast" -> (
            let rest = String.sub other (i + 1) (String.length other - i - 1) in
            match float_of_string_opt rest with
            | Some d when d > 0.0 && Float.is_finite d ->
                contrast (Lrd_experiments.Sweep.Decades d)
            | _ ->
                Error
                  (Printf.sprintf
                     "--gap-policy contrast:D needs a positive finite D, got \
                      %S" rest))
        | _ ->
            Error
              (Printf.sprintf
                 "unknown --gap-policy %S (expected uniform, contrast or \
                  contrast:D)" s))
  in
  let shard_arg =
    let doc =
      "Worker mode: compute only shard $(docv) (e.g. $(b,1/2)) of one \
       shardable figure's grid.  Rows are partitioned round-robin, so \
       every warm-start chain stays inside one shard and each owned \
       cell is bitwise identical to the whole run's.  Writes the \
       partial results, a cells payload, a metrics snapshot and a \
       checkpoint manifest into $(b,--out).  Requires the uniform gap \
       policy."
    in
    Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"K/N" ~doc)
  in
  let shards_arg =
    let doc =
      "Driver mode: self-exec $(docv) worker processes (one per shard) \
       over one shardable figure, wait for all (restarting failures up \
       to $(b,--retries) times), then merge — results byte-identical \
       to the unsharded run.  Exit 1 when a shard still fails after \
       its retries."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let merge_arg =
    let doc =
      "Merge mode: load the shard files in $(docv), refuse mismatched \
       schema / figure / parameter digests (exit 2, the $(b,lrd \
       metrics diff) discipline), replay the figure against the merged \
       store and write $(b,merged.results.txt) plus \
       $(b,merged.metrics.json) (counter sums across shards)."
    in
    Arg.(value & opt (some string) None & info [ "merge" ] ~docv:"DIR" ~doc)
  in
  let out_arg =
    let doc =
      "Directory for shard outputs (worker and driver modes); created \
       if missing."
    in
    Arg.(value & opt string "lrd-shards" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc =
      "With $(b,--shards): skip spawning shards whose checkpoint (cells \
       payload + manifest with matching schema, figure, spec and \
       parameter digest) is already valid in $(b,--out) — only the \
       missing cells are recomputed.  Skipped work lands in the \
       $(b,shard/cells_skipped) counter."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let retries_arg =
    let doc =
      "With $(b,--shards): restart a failed worker up to $(docv) times \
       before giving up."
    in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let results_out_arg =
    let doc =
      "Tee every figure's pure output (without the per-figure wall-time \
       lines) to $(docv) — byte-comparable across runs; what the \
       shard-equivalence gate compares $(b,merged.results.txt) \
       against."
    in
    Arg.(
      value & opt (some string) None & info [ "results-out" ] ~docv:"FILE" ~doc)
  in
  let superpose_arg =
    let doc =
      "Aggregate-marginal construction for the superposition \
       experiments: $(b,exact) forces the repeated-squaring \
       transform-domain convolution, $(b,edgeworth) forces the \
       cumulant-sum closed form, and $(b,auto) (the default) picks \
       exact whenever the transform grid fits the cost model's cap."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("exact", Lrd_core.Superpose.Exact);
               ("edgeworth", Lrd_core.Superpose.Edgeworth);
               ("auto", Lrd_core.Superpose.Auto);
             ])
          Lrd_core.Superpose.Auto
      & info [ "superpose" ] ~docv:"METHOD" ~doc)
  in
  let run quick seed jobs gap_policy iteration_budget superpose metrics
      metrics_out metrics_interval trace_out manifest shard shards merge out
      resume retries results_out ids =
    (* Set by the branch that runs the registry: the manifest is sealed
       from the run's one snapshot, after teardown. *)
    let seal = ref ignore in
    with_telemetry ?metrics_interval ?trace_out ~seal metrics metrics_out
    @@ fun () ->
    match parse_gap_policy gap_policy iteration_budget with
    | Error msg -> `Error (false, msg)
    | Ok policy -> (
        let shard_modes =
          (if shard <> None then 1 else 0)
          + (if shards <> None then 1 else 0)
          + if merge <> None then 1 else 0
        in
        if shard_modes > 1 then
          `Error (false, "--shard, --shards and --merge are mutually exclusive")
        else if shard_modes = 1 then
          (* Process-sharding modes: exactly one shardable figure under
             the uniform policy. *)
          match ids with
          | [ id ] -> (
              match Lrd_experiments.Registry.find id with
              | None ->
                  `Error (false, Printf.sprintf "unknown experiment id %S" id)
              | Some e when not e.Lrd_experiments.Registry.shardable ->
                  `Error
                    ( false,
                      Printf.sprintf
                        "%s is not shardable (only the scheduled-sweep \
                         figures are: fig4, fig5, fig10, fig11, fig12, \
                         fig13, fig11_scale)"
                        id )
              | Some _ when policy <> Lrd_experiments.Sweep.uniform_policy ->
                  `Error
                    ( false,
                      "sharding requires --gap-policy uniform without \
                       --iteration-budget: the contrast and budget rules \
                       couple cells across the whole surface, which a \
                       partition cannot reproduce" )
              | Some _ -> (
                  match (shard, shards, merge) with
                  | Some spec_s, None, None -> (
                      match Lrd_experiments.Shard.parse_spec spec_s with
                      | Error msg -> `Error (false, "--shard: " ^ msg)
                      | Ok spec ->
                          run_shard_worker ~quick ~seed ~jobs ~superpose
                            ~dir:out ~spec id;
                          `Ok ())
                  | None, Some count, None ->
                      if count < 1 then
                        `Error (false, "--shards needs a positive count")
                      else begin
                        seal :=
                          run_shard_driver ?heartbeat:metrics_interval ~quick
                            ~seed ~jobs ~superpose ~manifest ~dir:out ~count
                            ~resume ~retries id;
                        `Ok ()
                      end
                  | None, None, Some dir ->
                      let digest = shard_digest ~quick ~seed ~superpose id in
                      let _, merge_seal =
                        run_shard_merge ~quick ~seed ~jobs ~superpose
                          ~manifest ~digest ~dir id
                      in
                      seal := merge_seal;
                      `Ok ()
                  | _ -> assert false))
          | _ ->
              `Error
                ( false,
                  "--shard/--shards/--merge run exactly one figure id \
                   (e.g. lrd experiment fig12 --shards 2)" )
        else
          match
            try
              Ok
                (Lrd_experiments.Data.create ~seed ~jobs ~gap_policy:policy
                   ~superpose ~quick ())
            with Invalid_argument msg -> Error msg
          with
          | Error msg -> `Error (false, msg)
          | Ok ctx ->
              Fun.protect
                ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
                (fun () ->
                  match ids with
                  | [ "list" ] ->
                      List.iter
                        (fun e ->
                          Format.printf "%-18s %s@."
                            e.Lrd_experiments.Registry.id
                            e.Lrd_experiments.Registry.title)
                        Lrd_experiments.Registry.all;
                      `Ok ()
                  | ids -> (
                      let only = if ids = [] then None else Some ids in
                      try
                        let summary =
                          Lrd_experiments.Registry.run ?only
                            ?results:results_out ctx Format.std_formatter
                        in
                        seal := manifest_seal manifest ctx summary;
                        `Ok ()
                      with Invalid_argument msg -> `Error (false, msg))))
  in
  let doc = "run the paper's figures and the ablations" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ jobs_arg $ gap_policy_arg
       $ iteration_budget_arg $ superpose_arg $ metrics_format_arg
       $ metrics_out_arg $ metrics_interval_arg $ trace_out_arg $ manifest_arg
       $ shard_arg $ shards_arg $ merge_arg $ out_arg $ resume_arg
       $ retries_arg $ results_out_arg $ ids_arg))

(* ------------------------------------------------------------------ *)
(* metrics diff *)

let metrics_cmd =
  let diff_cmd =
    let base_arg =
      let doc =
        "Baseline snapshot: a $(b,--metrics json) file, a bench \
         $(b,--json) baseline (BENCH_micro.json), or a run manifest."
      in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE" ~doc)
    in
    let current_arg =
      let doc = "Current snapshot to compare, in any of the same formats." in
      Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)
    in
    let threshold_arg =
      let doc =
        "Regression ratio: a series regresses when current > $(docv) x \
         base (decreases never regress)."
      in
      Arg.(value & opt float 2.0 & info [ "threshold" ] ~docv:"RATIO" ~doc)
    in
    let min_abs_arg =
      let doc =
        "Additionally require the absolute increase to reach $(docv) \
         before calling a regression (filters noise on tiny series)."
      in
      Arg.(value & opt float 0.0 & info [ "min-abs" ] ~docv:"DELTA" ~doc)
    in
    let filter_arg =
      let doc =
        "Compare only series whose name contains $(docv) (e.g. \
         $(b,kernel/) to gate just the CPU micro-kernels)."
      in
      Arg.(
        value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR" ~doc)
    in
    let exact_arg =
      let doc =
        "Equivalence gating: any numeric difference on a series present \
         in both snapshots — either direction, any size — is a \
         regression (exit 3).  Names on one side only still warn.  \
         Used with $(b,--filter solver/) to assert a merged sharded \
         run reproduced the whole run's deterministic counters."
      in
      Arg.(value & flag & info [ "exact" ] ~doc)
    in
    let run base current threshold min_abs filter exact =
      (* Exit codes mirror the bench harness: 0 clean, 3 regression,
         2 unreadable or unrecognized input.  Names present on only one
         side warn without failing, so an --only-filtered run can be
         diffed against a full baseline. *)
      exit
        (Lrd_obs.Diff.run ~threshold ~min_abs ?filter ~exact ~base ~current ())
    in
    let doc =
      "compare two metrics snapshots (exit 0 clean, 3 on regression, 2 \
       on unreadable input)"
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(
        const run $ base_arg $ current_arg $ threshold_arg $ min_abs_arg
        $ filter_arg $ exact_arg)
  in
  let doc = "inspect and compare metrics snapshots" in
  Cmd.group (Cmd.info "metrics" ~doc) [ diff_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "cutoff-correlated fluid traffic model and finite-buffer loss solver \
     (Grossglauser & Bolot, SIGCOMM '96)"
  in
  let info = Cmd.info "lrd" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        solve_cmd;
        trace_cmd;
        hurst_cmd;
        simulate_cmd;
        provision_cmd;
        fit_cmd;
        ams_cmd;
        stationarity_cmd;
        experiment_cmd;
        metrics_cmd;
      ]
  in
  (* Bad command-line input, whether a converter or the command itself
     rejects it, exits 2 like `lrd metrics diff` on unreadable input. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
