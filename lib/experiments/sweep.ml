let buffers ~quick ?(max_seconds = 2.0) () =
  if not (max_seconds > 0.01) then
    invalid_arg
      (Printf.sprintf
         "Sweep.buffers: max_seconds must exceed 0.01 s (the logspace lower \
          bound), got %g"
         max_seconds);
  let points = if quick then 4 else 7 in
  Lrd_numerics.Array_ops.logspace 0.01 max_seconds points

let cutoffs ~quick () =
  let points = if quick then 4 else 10 in
  let finite = Lrd_numerics.Array_ops.logspace 0.1 100.0 points in
  Array.append finite [| Float.infinity |]

let hursts ~quick () =
  if quick then [| 0.55; 0.75; 0.95 |] else [| 0.55; 0.65; 0.75; 0.85; 0.95 |]

let scalings ~quick () =
  if quick then [| 0.5; 1.0; 1.5 |] else [| 0.5; 0.75; 1.0; 1.25; 1.5 |]

let stream_counts ~quick () =
  if quick then [| 1; 3; 7 |] else [| 1; 2; 3; 5; 7; 10 |]

(* All grid evaluation funnels through these three helpers, so a figure
   routed here runs on the experiment context's domain pool when one is
   configured and sequentially otherwise.  The cell function must obey
   the pool's determinism contract (no shared mutable state, randomness
   only via [Rng.split_indexed] on the cell index): under that contract
   the parallel grids are bit-identical to the sequential ones, which
   the tier-1 determinism test enforces. *)

(* Grid cells evaluated through the sweep helpers, pooled or
   sequential: the denominator for workload-cache and solver counters
   when reading a metrics snapshot of a figure run. *)
let m_cells = Lrd_obs.Obs.Counter.make "sweep/cells"

(* A traced cell records one timeline slice on whichever domain ran it;
   pooled cells also get a [pool/task] slice from the scheduler, so the
   sweep slice nests inside it with the cell work attributed by name. *)
let traced1 f x =
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.with_span "sweep/cell" (fun () -> f x)
  else f x

let traced2 f x y =
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.with_span "sweep/cell" (fun () -> f x y)
  else f x y

let map ?pool f xs =
  Lrd_obs.Obs.Counter.add m_cells (Array.length xs);
  let f = traced1 f in
  match pool with
  | None -> Array.map f xs
  | Some p -> Lrd_parallel.Pool.map p f xs

let psurface ?pool ~xs ~ys ~f () =
  Lrd_obs.Obs.Counter.add m_cells (Array.length xs * Array.length ys);
  let f = traced2 f in
  match pool with
  | None -> Array.map (fun y -> Array.map (fun x -> f x y) xs) ys
  | Some p -> Lrd_parallel.Pool.map2_grid p ~xs ~ys ~f

let surface ?pool ~xs ~ys ~f () =
  psurface ?pool ~xs ~ys ~f:(fun x y -> f ~x ~y) ()

let cell_key x = Printf.sprintf "%h" x

(* ------------------------------------------------------------------ *)
(* Gap-driven sweep scheduler.

   [scheduled_surface] evaluates a grid of resumable solver states
   ([Solver.State]) instead of independent fire-and-forget solves, and
   spends iterations where uncertainty lives: each round it advances the
   cells with the widest relative bound gaps by one slice, in parallel
   on the pool when one is given.  Two further levers ride on the same
   machinery:

   - continuation along the x axis: when a cell finishes, its right
     neighbour is created and warm-started from its occupancy pmfs
     ([Solver.State.seed_from] — a bitwise grid-coincidence check with
     a cold-start fallback), skipping the refinement ladder and most of
     the mixing time;
   - a per-figure [gap_policy]: an optional plotted-contrast rule stops
     cells whose certified upper bound already sits decades below the
     surface's largest lower bound (their exact value cannot change the
     figure), and an optional global iteration budget hard-stops the
     whole surface.

   Determinism: rounds are sequential and the frontier is a pure
   function of the accumulated solver states, which themselves evolve
   independently per cell — so results are byte-identical for every
   pool size, exactly like [surface].  The pool only changes which
   domain runs a given slice. *)

type contrast = Decades of float | From_axis

type gap_policy = {
  contrast : contrast option;
  iteration_budget : int option;
}

let uniform_policy = { contrast = None; iteration_budget = None }

let m_warm_starts = Lrd_obs.Obs.Counter.make "sweep/warm_starts"
let m_iterations_saved = Lrd_obs.Obs.Counter.make "sweep/iterations_saved"
let m_early_stopped = Lrd_obs.Obs.Counter.make "sweep/cells_early_stopped"
let m_rounds = Lrd_obs.Obs.Counter.make "sweep/schedule_rounds"
let m_sched_gap = Lrd_obs.Obs.Trajectory.make ~capacity:256 "sweep/gap_rel"

let scheduled_surface (type a b) ?pool ?(policy = uniform_policy)
    ?(slice = 512) ?(warm_start = true) ?shard ~(xs : a array)
    ~(ys : b array) ~(state : a -> b -> Lrd_core.Solver.State.t) () =
  let module State = Lrd_core.Solver.State in
  let module Obs = Lrd_obs.Obs in
  if slice <= 0 then
    invalid_arg "Sweep.scheduled_surface: slice must be positive";
  let nx = Array.length xs and ny = Array.length ys in
  match shard with
  | Some sh when Shard.is_replay sh ->
      (* Merge replay: every cell is served from the merged store, the
         [state] callback is never invoked and no solver work runs — the
         figure's printing path sees bitwise the whole run's results. *)
      Shard.replay_grid sh ~nx ~ny
  | _ ->
  (* Row ownership: a compute-mode shard runs only its rows.  Rows are
     the unit of determinism — warm-start chains run left to right
     within a row — but the contrast/budget policies couple cells
     across the whole surface, so sharding requires the uniform
     policy. *)
  let owned =
    match shard with
    | None -> fun _ -> true
    | Some sh ->
        if policy <> uniform_policy then
          invalid_arg
            "Sweep.scheduled_surface: sharding requires the uniform gap \
             policy (contrast/budget couple cells across shards)";
        fun iy -> Shard.owns_row sh ~iy
  in
  let owned_rows = ref 0 in
  for iy = 0 to ny - 1 do
    if owned iy then incr owned_rows
  done;
  (* Owned cells only: summing [sweep/cells] across a shard set then
     reproduces the whole run's count exactly. *)
  Obs.Counter.add m_cells (!owned_rows * nx);
  if nx = 0 then Array.map (fun _ -> [||]) ys
  else begin
    let n = nx * ny in
    let states : State.t option array = Array.make n None in
    (* Iterations the warm-start source had spent when this cell was
       seeded; -1 for cold cells.  The difference to the seeded cell's
       own final count is a conservative estimate of the iterations the
       continuation saved (the true counterfactual would need a cold
       rerun). *)
    let seed_iterations = Array.make n (-1) in
    let handled = Array.make n false in
    let rec on_finished i =
      if not handled.(i) then begin
        handled.(i) <- true;
        (match states.(i) with
        | Some st when seed_iterations.(i) >= 0 ->
            Obs.Counter.add m_iterations_saved
              (max 0 (seed_iterations.(i) - State.iterations st))
        | _ -> ());
        (* Continuation: the chain's next cell starts — warm when the
           grids coincide — as soon as its predecessor settles. *)
        let ix = i mod nx and iy = i / nx in
        if ix + 1 < nx && states.(i + 1) = None then create_cell iy (ix + 1)
      end
    and create_cell iy ix =
      let i = (iy * nx) + ix in
      let st = state xs.(ix) ys.(iy) in
      states.(i) <- Some st;
      if warm_start && ix > 0 then (
        match states.(i - 1) with
        | Some src when State.finished src ->
            if State.seed_from ~src st then begin
              Obs.Counter.incr m_warm_starts;
              seed_iterations.(i) <- State.iterations src;
              if Obs.Trace.enabled () then
                Obs.Trace.instant ~arg:i "sweep/warm_start"
            end
        | _ -> ());
      (* A trivial cell (zero buffer / non-growing workload) is born
         finished: keep the chain moving without waiting for a round. *)
      if State.finished st then on_finished i
    in
    let active () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        match states.(i) with
        | Some st when not (State.finished st) -> acc := i :: !acc
        | _ -> ()
      done;
      !acc
    in
    let total_iterations () =
      Array.fold_left
        (fun acc s ->
          match s with Some st -> acc + State.iterations st | None -> acc)
        0 states
    in
    let stop_cell i =
      match states.(i) with
      | Some st when not (State.finished st) ->
          State.stop st;
          Obs.Counter.incr m_early_stopped;
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~arg:i "sweep/early_stop";
          on_finished i
      | _ -> ()
    in
    (* Plotted-contrast early stop: a cell whose certified upper bound
       sits [decades] below the largest lower bound anywhere on the
       surface so far cannot move its own pixel — every further
       iteration would only narrow an invisibly small value. *)
    let apply_contrast () =
      let decades =
        match policy.contrast with
        | None -> None
        | Some (Decades d) -> Some d
        | Some From_axis ->
            (* Derive the contrast from the loss axis itself: the
               certified lower bounds of finished cells span the
               plotted range, and a cell more than one decade below
               the smallest plotted value sits off the bottom of the
               axis.  Until at least one cell has finished with a
               positive bound there is no axis to read, so no cut is
               applied — the derivation only ever sees settled values
               and is a pure function of the states, keeping rounds
               deterministic.  The legacy fixed default (2 decades)
               is the floor so a near-flat axis never turns the rule
               into a hair trigger. *)
            let lmax = ref 0.0 and lmin = ref Float.infinity in
            Array.iter
              (function
                | Some st when State.finished st ->
                    let lo, _ = State.bounds st in
                    if Float.is_finite lo && lo > 0.0 then begin
                      if lo > !lmax then lmax := lo;
                      if lo < !lmin then lmin := lo
                    end
                | _ -> ())
              states;
            if !lmax > 0.0 then
              Some (Float.max 2.0 (Float.log10 (!lmax /. !lmin) +. 1.0))
            else None
      in
      match decades with
      | None -> ()
      | Some decades ->
          let floor_lower = ref 0.0 in
          Array.iter
            (function
              | Some st ->
                  let lo, _ = State.bounds st in
                  if Float.is_finite lo && lo > !floor_lower then
                    floor_lower := lo
              | None -> ())
            states;
          let cut = !floor_lower *. (10.0 ** -.decades) in
          if cut > 0.0 then
            List.iter
              (fun i ->
                match states.(i) with
                | Some st ->
                    let _, hi = State.bounds st in
                    if Float.is_finite hi && hi < cut then stop_cell i
                | None -> ())
              (active ())
    in
    (* Global budget: once the surface has spent its iteration cap,
       stop everything — including chain cells not yet created, which
       get their (vacuous but certified) initial bounds. *)
    let apply_budget () =
      match policy.iteration_budget with
      | None -> ()
      | Some budget ->
          if total_iterations () >= budget then begin
            let rec drain () =
              match active () with
              | [] -> ()
              | act ->
                  List.iter stop_cell act;
                  drain ()
            in
            drain ()
          end
    in
    let advance_cell i =
      match states.(i) with
      | Some st ->
          if Lrd_obs.Obs.Trace.enabled () then
            Lrd_obs.Obs.Trace.with_span ~arg:i "sweep/slice" (fun () ->
                State.advance st ~iterations:slice)
          else State.advance st ~iterations:slice
      | None -> ()
    in
    for iy = 0 to ny - 1 do
      if owned iy then create_cell iy 0
    done;
    apply_budget ();
    let rec rounds () =
      match active () with
      | [] -> ()
      | act ->
          Obs.Counter.incr m_rounds;
          (* Frontier: every active cell within 2x of the widest
             relative gap.  Fresh cells report an infinite gap and are
             always scheduled; as the surface converges the frontier
             narrows onto the hard cells. *)
          let gap i =
            match states.(i) with
            | Some st -> State.gap_rel st
            | None -> 0.0
          in
          let gmax = List.fold_left (fun g i -> Float.max g (gap i)) 0.0 act in
          let frontier =
            Array.of_list
              (List.filter (fun i -> gap i >= 0.5 *. gmax) act)
          in
          (match pool with
          | Some p when Array.length frontier > 1 ->
              Lrd_parallel.Pool.iter p
                (fun k -> advance_cell frontier.(k))
                (Array.length frontier)
          | _ -> Array.iter advance_cell frontier);
          (* Post-round bookkeeping runs on the scheduling domain, in
             index order: gap trajectories, chain continuation, then
             the policy passes — all deterministic. *)
          Array.iter
            (fun i ->
              if Obs.enabled () then Obs.Trajectory.record m_sched_gap (gap i);
              match states.(i) with
              | Some st when State.finished st -> on_finished i
              | _ -> ())
            frontier;
          apply_contrast ();
          apply_budget ();
          rounds ()
    in
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "sweep/scheduled" rounds
    else rounds ();
    let results =
      Array.init ny (fun iy ->
          Array.init nx (fun ix ->
              match states.((iy * nx) + ix) with
              | Some st -> State.result st
              | None ->
                  (* Unowned rows report a NaN placeholder in this
                     shard's partial output; the merge replaces them
                     with the owning shard's cells. *)
                  if owned iy then assert false else Shard.absent_result))
    in
    (match shard with
    | Some sh -> Shard.record_grid sh ~nx ~ny results
    | None -> ());
    results
  end

(* The shared parameter grids, as manifest JSON.  Infinite cutoffs are
   rendered as the string "inf": JSON has no infinity literal and a
   null would lose which cell the value was. *)
let manifest_fields ~quick () =
  let open Lrd_obs.Json in
  let num f = if Float.is_finite f then Num f else Str "inf" in
  let floats a = List (Array.to_list (Array.map num a)) in
  let ints a =
    List (Array.to_list (Array.map (fun i -> Num (float_of_int i)) a))
  in
  [
    ("buffers_seconds", floats (buffers ~quick ()));
    ("cutoffs_seconds", floats (cutoffs ~quick ()));
    ("hursts", floats (hursts ~quick ()));
    ("scalings", floats (scalings ~quick ()));
    ("stream_counts", ints (stream_counts ~quick ()));
  ]

let shuffle_blocks_of_cutoffs trace cutoffs =
  let slot = trace.Lrd_trace.Trace.slot in
  Array.map
    (fun tc ->
      if tc = Float.infinity then (tc, None)
      else (tc, Some (max 1 (int_of_float (Float.round (tc /. slot))))))
    cutoffs

let shuffled_losses ?pool ~seed trace ~utilization ~buffers ~cutoffs =
  let c = Lrd_trace.Trace.service_rate_for_utilization trace ~utilization in
  let buffers = Array.map (fun b -> b *. c) buffers in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add seed 7L) in
  (* One shuffle per cutoff, reused across every buffer size: each
     column is one pass over its shuffled trace with a lane per buffer,
     exactly as a single shuffled trace would be in the paper's
     simulations.  Column [i] shuffles with its own stream split off by
     index, so the surface is the same sequentially and on the pool. *)
  let columns =
    map ?pool
      (fun (i, (_, block)) ->
        let shuffled =
          match block with
          | None -> trace
          | Some b ->
              Lrd_trace.Shuffle.external_shuffle
                (Lrd_rng.Rng.split_indexed rng ~index:i)
                trace ~block:b
        in
        Array.map Lrd_fluidsim.Queue_sim.loss_rate
          (Lrd_fluidsim.Queue_sim.run_trace
             (Lrd_fluidsim.Queue_sim.create ~service_rate:c ~buffers)
             shuffled))
      (Array.mapi (fun i block -> (i, block))
         (shuffle_blocks_of_cutoffs trace cutoffs))
  in
  Array.init (Array.length buffers) (fun row ->
      Array.map (fun column -> column.(row)) columns)
