(* One measured run of one workload, in this process.  The caller runs
   it in a fresh process (per-domain FFT plans and arena memos survive
   inside a process, so reusing one would hide costs every user pays).

   Set-up is [Data.create] (which spawns the pool) plus forcing the
   shared inputs the workload reads.  [wall_s] and [cpu_s] span the
   first experiment's start to the last one's finish. *)

module Obs = Lrd_obs.Obs
module Json = Lrd_obs.Json
module Data = Lrd_experiments.Data
module Registry = Lrd_experiments.Registry
module Shard = Lrd_experiments.Shard
module Solver = Lrd_core.Solver

type experiment = {
  id : string;
  seconds : float;
  digest : string;
  problems : string list;  (** Exception and check failures. *)
}

type t = {
  workload : string;
  jobs : int;
  quick : bool;
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  peak_rss_mb : float;
  experiments : experiment list;
  layers : (string * float) list;
      (** Per-layer readings; the snapshot-derived ones are zero unless
          the run was traced. *)
}

let now = Unix.gettimeofday

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  f ();
  now () -. t0

(* Peak resident set (VmHWM) of this process, in MiB; NaN where
   /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line -> (
            match Check.tokens line with
            | _ :: kb :: _ -> float_of_string kb /. 1024.0
            | _ -> Float.nan)
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

(* The certified cells a compute-mode shard handle recorded, in record
   order (the scheduled sweeps record every grid they finish). *)
let recorded_cells shard =
  let list key v = match Json.member key v with Some (Json.List l) -> l | _ -> [] in
  let hex key v =
    match Json.member key v with
    | Some (Json.Str s) -> Option.value (float_of_string_opt s) ~default:Float.nan
    | _ -> Float.nan
  in
  let int key v =
    match Json.member key v with Some (Json.Num f) -> int_of_float f | _ -> 0
  in
  Shard.cells_json shard ~figure:"perfbench" ~digest:""
  |> list "grids"
  |> List.concat_map (list "rows")
  |> List.concat_map (list "cells")
  |> List.map (fun c ->
         {
           Solver.loss = hex "loss" c;
           lower_bound = hex "lower_bound" c;
           upper_bound = hex "upper_bound" c;
           iterations = int "iterations" c;
           bins = int "bins" c;
           refinements = int "refinements" c;
           converged = Json.member "converged" c = Some (Json.Bool true);
         })

let rec split_at n = function
  | l when n <= 0 -> ([], l)
  | [] -> ([], [])
  | x :: rest ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)

(* Readings from the program's own telemetry snapshot. *)
let snapshot_layers snap =
  let total name =
    match Obs.find snap name with
    | Some (Obs.Counter { total; _ }) -> float_of_int total
    | Some (Obs.Histogram h) -> h.Obs.sum
    | _ -> 0.0
  in
  let lookups = total "workload_cache/lookups" in
  [
    ("core.solver_solves", total "solver/solves");
    ("core.solver_iterations", total "solver/iterations");
    ("core.solver_refinements", total "solver/refinements");
    ("core.solver_warm_restarts", total "solver/warm_restarts");
    ("core.solver_budget_exhausted", total "solver/budget_exhausted");
    ("core.workload_points_fresh", total "workload_grid/points_fresh");
    ("core.workload_points_reused", total "workload_grid/points_reused");
    ( "core.workload_cache_hit_rate",
      if lookups > 0.0 then total "workload_cache/hits" /. lookups else 0.0 );
    ("core.superpose_spectrum_multiplies", total "superpose/spectrum_multiplies");
    ("numerics.fft_plans_built", total "fft/plans_built");
    ("numerics.fft_real_plans_built", total "fft/real_plans_built");
    ("experiments.sweep_cells", total "sweep/cells");
    ("experiments.sweep_warm_starts", total "sweep/warm_starts");
    ("experiments.sweep_iterations_saved", total "sweep/iterations_saved");
    ("experiments.sweep_schedule_rounds", total "sweep/schedule_rounds");
    ("parallel.pool_tasks_run", total "pool/tasks_run");
    ("parallel.pool_tasks_stolen", total "pool/tasks_stolen");
    ("parallel.pool_task_run_s", total "pool/task_run_seconds");
    ("parallel.pool_queue_wait_s", total "pool/queue_wait_seconds");
    ("parallel.pool_idle_s", total "pool/idle_seconds");
  ]

let run ?jobs ?(traced = false) ~(workload : Workloads.t) ~seed ~quick () =
  Obs.set_enabled traced;
  Obs.Trace.set_enabled traced;
  let quick = quick || workload.quick in
  let jobs =
    min (Option.value jobs ~default:workload.jobs) (Domain.recommended_domain_count ())
  in
  (* A one-of-one compute shard owns every row, so the sweeps run as
     usual and hand back every certified cell for the checks. *)
  let shard = Shard.compute { Shard.index = 1; count = 1 } in
  let t0 = now () in
  let ctx = Data.create ~seed ~jobs ~quick ~shard () in
  let pool_create_s = now () -. t0 in
  let force input f = if List.mem input workload.inputs then timed f else 0.0 in
  let mtv_s = force Workloads.Mtv (fun () -> ignore (Data.mtv ctx)) in
  let bellcore_s = force Workloads.Bellcore (fun () -> ignore (Data.bellcore ctx)) in
  let histogram_s =
    force Workloads.Marginals (fun () ->
        ignore (Data.mtv_marginal ctx);
        ignore (Data.bc_marginal ctx))
  in
  let epochs_s =
    force Workloads.Epochs (fun () ->
        ignore (Data.mtv_mean_epoch ctx);
        ignore (Data.bc_mean_epoch ctx))
  in
  let setup_s = now () -. t0 in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_seconds () in
  let w0 = now () in
  let ran =
    List.map
      (fun (e : Registry.entry) ->
        let cells0 = Shard.cell_count shard in
        let buf = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer buf in
        let s0 = now () in
        let error =
          match e.run ctx fmt with
          | () -> []
          | exception exn -> [ "raised " ^ Printexc.to_string exn ]
        in
        let seconds = now () -. s0 in
        Format.pp_print_flush fmt ();
        (e.id, seconds, Buffer.contents buf, error, Shard.cell_count shard - cells0))
      (Workloads.entries workload)
  in
  let wall_s = now () -. w0 in
  let cpu_s = cpu_seconds () -. cpu0 in
  Data.teardown ctx;
  let gc1 = Gc.quick_stat () in
  let params = Data.solver_params ctx in
  let _, experiments =
    List.fold_left_map
      (fun cells (id, seconds, output, error, ncells) ->
        let mine, cells = split_at ncells cells in
        let problems = error @ Check.text output @ Check.cells ~params mine in
        (cells, { id; seconds; digest = Fingerprint.digest output; problems }))
      (recorded_cells shard) ran
  in
  let entry_s id =
    match List.find_opt (fun x -> x.id = id) experiments with
    | Some x -> x.seconds
    | None -> 0.0
  in
  let packets_offered =
    if List.mem "ext-packet" workload.ids then
      let work = Lrd_trace.Trace.total_work (Data.mtv ctx) in
      float_of_int (Workloads.packet_buffers ~quick)
      *. List.fold_left (fun acc size -> acc +. (work /. size)) 0.0 Workloads.packet_sizes
    else 0.0
  in
  let layers =
    [
      ("trace.mtv_synth_s", mtv_s);
      ("trace.bellcore_synth_s", bellcore_s);
      ("trace.histogram_s", histogram_s);
      ("trace.epochs_s", epochs_s);
      ("parallel.pool_create_s", pool_create_s);
    ]
    @ List.map
        (fun (e : Registry.entry) -> ("experiments." ^ e.id ^ "_s", entry_s e.id))
        Registry.all
    @ [
        ( "experiments.residual_s",
          wall_s -. List.fold_left (fun acc x -> acc +. x.seconds) 0.0 experiments );
      ]
    @ snapshot_layers (if traced then Obs.snapshot () else [])
    @ [
        ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("packet.packets_offered", packets_offered);
        ( "packet.ns_per_packet",
          if packets_offered > 0.0 then entry_s "ext-packet" *. 1e9 /. packets_offered
          else 0.0 );
      ]
  in
  {
    workload = workload.name;
    jobs = Data.jobs ctx;
    quick;
    setup_s;
    wall_s;
    cpu_s;
    peak_rss_mb = peak_rss_mb ();
    experiments;
    layers;
  }

let to_json r =
  let num f = Json.Num f in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("jobs", num (float_of_int r.jobs));
      ("quick", Json.Bool r.quick);
      ("setup_s", num r.setup_s);
      ("wall_s", num r.wall_s);
      ("cpu_s", num r.cpu_s);
      ("peak_rss_mb", num r.peak_rss_mb);
      ( "experiments",
        Json.List
          (List.map
             (fun x ->
               Json.Obj
                 [
                   ("id", Json.Str x.id);
                   ("seconds", num x.seconds);
                   ("digest", Json.Str x.digest);
                   ("problems", Json.List (List.map (fun p -> Json.Str p) x.problems));
                 ])
             r.experiments) );
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
    ]
