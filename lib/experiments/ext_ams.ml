(* Extension: the Anick-Mitra-Sondhi exact spectral solution as an
   analytic anchor.  Three columns over a ladder of buffer levels:

   - AMS: the exact infinite-buffer overflow probability Pr{Q > b} for
     N exponential on/off sources (time stationary);
   - simulation: the time-weighted empirical ccdf from an exact CTMC
     sample path through the fluid simulator;
   - loss: the finite-buffer loss rate at B = b, simulated on the same
     path - footnote 2 of the paper says the overflow probability upper
     bounds it.

   The last column is computed with the paper's own machinery as well:
   the i.i.d.-redraw model with exponential epochs matched to the
   chain's marginal and mean holding time, run through the bounded
   solver - quantifying how much the redraw approximation gives away
   against the true Markov modulation. *)

let id = "ext-ams"
let title = "Extension: AMS exact spectrum vs simulation vs the paper's model"

let sources = 6
let on_rate = 1.0
let lambda = 1.0
let mu = 2.0
let service_rate = 2.7

let run ctx fmt =
  let sys =
    Lrd_baselines.Ams.create ~sources ~on_rate ~lambda ~mu ~service_rate
  in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 91L) in
  let n_epochs = if Data.quick ctx then 400_000 else 2_000_000 in
  let rates, durations = Lrd_baselines.Ams.sample_epochs sys rng ~n:n_epochs in
  Table.heading fmt title;
  Format.fprintf fmt
    "%d exponential on/off sources (rate %g, lambda %g, mu %g), c = %g \
     (utilization %.3f); negative eigenvalues:"
    sources on_rate lambda mu service_rate
    (Lrd_baselines.Ams.utilization sys);
  Array.iter
    (fun z -> Format.fprintf fmt " %.4f" z)
    (Lrd_baselines.Ams.negative_eigenvalues sys);
  Format.fprintf fmt "@.";
  (* Time-weighted empirical ccdf on an unbounded queue. *)
  let levels = [| 0.5; 1.0; 2.0; 4.0; 6.0 |] in
  let above = Array.make (Array.length levels) 0.0 in
  let total_time = ref 0.0 in
  let sim =
    Lrd_fluidsim.Queue_sim.make ~service_rate ~buffer:1e9 ()
  in
  Array.iteri
    (fun e rate ->
      let duration = durations.(e) in
      let initial = Lrd_fluidsim.Queue_sim.occupancy sim in
      ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
      total_time := !total_time +. duration;
      Array.iteri
        (fun i level ->
          above.(i) <-
            above.(i)
            +. Lrd_fluidsim.Queue_sim.epoch_time_above ~service_rate ~initial
                 ~rate ~duration ~level)
        levels)
    rates;
  (* Finite-buffer loss at B = level, every level as one lane of a
     single pass over a second, independent path. *)
  let finite =
    let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 92L) in
    let rates, durations =
      Lrd_baselines.Ams.sample_epochs sys rng ~n:(n_epochs / 2)
    in
    Lrd_fluidsim.Queue_sim.run
      (Lrd_fluidsim.Queue_sim.create ~service_rate ~buffers:levels)
      ~rates ~durations
  in
  (* The paper's i.i.d.-redraw model matched to the chain: binomial
     marginal, exponential epochs with the chain's mean holding time. *)
  let marginal =
    let pi = Lrd_baselines.Ams.stationary sys in
    Lrd_dist.Marginal.create
      ~rates:(Array.init (sources + 1) (fun j -> float_of_int j *. on_rate))
      ~probs:pi
  in
  let mean_holding =
    (* Expected holding time of the jump chain under the stationary
       distribution. *)
    let pi = Lrd_baselines.Ams.stationary sys in
    let acc = ref 0.0 in
    Array.iteri
      (fun j p ->
        let birth = float_of_int (sources - j) *. lambda in
        let death = float_of_int j *. mu in
        acc := !acc +. (p /. (birth +. death)))
      pi;
    !acc
  in
  let redraw_model =
    Lrd_core.Model.create ~marginal
      ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_holding)
  in
  Format.fprintf fmt "%8s %12s %12s %14s %14s %14s@." "level" "AMS"
    "sim (time)" "exact loss@B" "sim loss@B" "redraw-model";
  Array.iteri
    (fun i level ->
      let analytic = Lrd_baselines.Ams.overflow_probability sys ~level in
      let empirical = above.(i) /. !total_time in
      let exact_loss =
        Lrd_baselines.Ams.finite_buffer_loss sys ~buffer:level
      in
      let redraw =
        (Lrd_core.Solver.solve redraw_model ~service_rate ~buffer:level)
          .Lrd_core.Solver.loss
      in
      Format.fprintf fmt "%8g %12s %12s %14s %14s %14s@." level
        (Table.cell_value analytic)
        (Table.cell_value empirical)
        (Table.cell_value exact_loss)
        (Table.cell_value (Lrd_fluidsim.Queue_sim.loss_rate finite.(i)))
        (Table.cell_value redraw))
    levels;
  Format.fprintf fmt
    "(AMS and the time-weighted simulation agree to Monte Carlo accuracy; \
     the exact finite-buffer loss - full spectrum, two-sided boundary \
     conditions - matches the simulated loss to Monte Carlo accuracy and \
     is upper-bounded by the overflow probability, the paper's footnote \
     2.  The last column is a \
     deliberate misuse of the paper's model: matching only the marginal \
     and the mean JUMP time of the birth-death chain ignores that \
     consecutive epochs differ by a single source - the rate process is \
     strongly correlated across jumps, the i.i.d.-redraw assumption is \
     badly violated, and the model underestimates loss by orders of \
     magnitude at large buffers.  The paper's own fit avoids this by \
     measuring residence times of the rate in histogram BINS, which \
     absorbs the local correlation into the epoch length)@."
