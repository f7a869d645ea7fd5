(* Extension: the Introduction's motivating example made concrete.
   Three arrival processes with long-range-dependent (or matched)
   correlation feed an effectively infinite buffer; their occupancy
   tails differ radically, as the closed-form asymptotics predict:

   - exponential-epoch modulated fluid  -> exponential tail (Cramer);
   - fractional-Gaussian-noise rates    -> Weibullian tail (Norros);
   - single heavy-tailed on/off source  -> hyperbolic tail.

   For each input the empirical ccdf of the per-slot occupancy is
   tabulated next to the analytic shape estimate (matched at the first
   reported level, since the asymptotics carry unspecified prefactors). *)

let id = "ext-tails"

let title =
  "Extension: occupancy tails - exponential vs Weibull vs hyperbolic"

let utilization = 0.7

let empirical_ccdf occupancies levels =
  let n = float_of_int (Array.length occupancies) in
  Array.map
    (fun b ->
      let count =
        Array.fold_left
          (fun acc q -> if q > b then acc + 1 else acc)
          0 occupancies
      in
      float_of_int count /. n)
    levels

(* Scale the analytic curve to match the empirical value at the first
   level with nonzero empirical mass. *)
let calibrate analytic empirical =
  let anchor = ref None in
  Array.iteri
    (fun i e -> if !anchor = None && e > 0.0 && analytic.(i) > 0.0 then
        anchor := Some (e /. analytic.(i)))
    empirical;
  let factor = Option.value !anchor ~default:1.0 in
  Array.map (fun a -> Float.min 1.0 (a *. factor)) analytic

let run ctx fmt =
  let quick = Data.quick ctx in
  let slots = if quick then 60_000 else 400_000 in
  let slot = 0.02 in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 31L) in
  Table.heading fmt title;

  let simulate trace c =
    let sim =
      (* A buffer far above every probed level stands in for infinity. *)
      Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers:[| 1e9 *. c |]
    in
    (fst (Lrd_fluidsim.Queue_sim.occupancy_per_slot sim trace)).(0)
  in

  (* 1. Exponential tail: two-rate source, exponential epochs. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let mean_epoch = 0.1 in
  let exp_model =
    Lrd_core.Model.create ~marginal
      ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_epoch)
  in
  let c = Lrd_core.Model.mean_rate exp_model /. utilization in
  let exp_trace = Lrd_core.Model.sample_trace exp_model rng ~slots ~slot in
  let exp_occ = simulate exp_trace c in
  let delta =
    Lrd_core.Asymptotics.exponential_decay_rate ~marginal ~mean_epoch
      ~service_rate:c
  in
  let levels = [| 0.1; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 |] in
  let exp_emp = empirical_ccdf exp_occ levels in
  let exp_ana =
    calibrate (Array.map (fun b -> exp (-.delta *. b)) levels) exp_emp
  in
  Table.print_multi_series fmt
    ~title:
      (Printf.sprintf
         "exponential epochs (decay rate delta = %.3f per work unit)" delta)
    ~xlabel:"level" ~ylabel:"Pr{Q > b}" ~xs:levels
    [ ("empirical", exp_emp); ("analytic", exp_ana) ];

  (* 2. Weibullian tail: fGn-driven rates.  The Gaussian input needs a
     smaller service slack (the queue lives at much smaller levels than
     the regenerative cases), hence its own utilization and levels. *)
  let hurst = 0.8 in
  let mean = 5.0 and std = 1.5 in
  let z = Lrd_trace.Fgn.davies_harte rng ~hurst ~n:slots in
  let rates = Array.map (fun v -> Float.max 0.0 (mean +. (std *. v))) z in
  let fgn_trace = Lrd_trace.Trace.create ~rates ~slot in
  let c2 = mean /. 0.9 in
  let fgn_occ = simulate fgn_trace c2 in
  (* Var A(t) = sigma^2 slot^(2-2H) t^(2H) = a m t^(2H). *)
  let a = std *. std *. (slot ** (2.0 -. (2.0 *. hurst))) /. mean in
  let fgn_levels = [| 0.02; 0.05; 0.1; 0.2; 0.4; 0.8; 1.6 |] in
  let fgn_emp = empirical_ccdf fgn_occ fgn_levels in
  let fgn_ana =
    calibrate
      (Array.map
         (fun b ->
           Lrd_core.Asymptotics.fbm_tail ~mean ~variance_coefficient:a ~hurst
             ~service_rate:c2 ~level:b)
         fgn_levels)
      fgn_emp
  in
  Table.print_multi_series fmt
    ~title:
      (Printf.sprintf
         "fGn rates, H = %.2f (Weibull shape, exponent %.2f)" hurst
         (Lrd_core.Asymptotics.fbm_tail_exponent ~hurst))
    ~xlabel:"level" ~ylabel:"Pr{Q > b}" ~xs:fgn_levels
    [ ("empirical", fgn_emp); ("analytic", fgn_ana) ];

  (* 3. Hyperbolic tail: one heavy-tailed on/off source. *)
  let alpha = 1.5 in
  let peak = 2.0 and mean_on = 0.5 and mean_off = 0.5 in
  let source =
    Lrd_trace.Onoff.pareto_source ~peak_rate:peak ~mean_on ~mean_off
      ~alpha_on:alpha ~alpha_off:3.0
  in
  let onoff_trace =
    Lrd_trace.Onoff.generate rng ~sources:[ source ] ~slots ~slot
  in
  let c3 = peak *. mean_on /. (mean_on +. mean_off) /. utilization in
  let onoff_occ = simulate onoff_trace c3 in
  let onoff_levels = [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  let onoff_emp = empirical_ccdf onoff_occ onoff_levels in
  let onoff_ana =
    calibrate
      (Array.map
         (fun b ->
           Lrd_core.Asymptotics.onoff_tail ~peak ~mean_on ~mean_off ~alpha
             ~service_rate:c3 ~level:b)
         onoff_levels)
      onoff_emp
  in
  Table.print_multi_series fmt
    ~title:
      (Printf.sprintf
         "heavy-tailed on/off source (hyperbolic, exponent %.2f)"
         (1.0 -. alpha))
    ~xlabel:"level" ~ylabel:"Pr{Q > b}" ~xs:onoff_levels
    [ ("empirical", onoff_emp); ("analytic", onoff_ana) ];
  Format.fprintf fmt
    "(analytic curves are calibrated to the empirical value at the first \
     level: the asymptotics fix the shape, not the prefactor.  The \
     exponential case matches tightly; the fGn empirical tail sits above \
     the analytic curve, as expected of Norros' lower bound; the on/off \
     empirical tail has enormous finite-sample variance - a Pareto tail \
     converges to its asymptote very slowly, and a single long ON period \
     can dominate the whole trace - but it visibly decays polynomially, \
     orders of magnitude above the exponential case at the same \
     utilization.  Three inputs, comparable correlation, three radically \
     different tails: the paper's argument for looking beyond \
     second-order statistics)@."
