(* Integration tests over the experiment layer: every registry entry
   must execute in quick mode, and the headline quantitative shapes of
   the paper's evaluation must hold on the computed surfaces. *)

open Lrd_experiments

let ctx = lazy (Data.create ~quick:true ())

(* Substring search, used to check rendered tables. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table rendering *)

let test_table_axis_value () =
  Alcotest.(check string) "inf" "inf" (Table.axis_value Float.infinity);
  Alcotest.(check string) "plain" "0.5" (Table.axis_value 0.5);
  Alcotest.(check string) "large" "1.23e+04" (Table.axis_value 12345.0)

let test_table_cell_value () =
  Alcotest.(check string) "zero" "0" (Table.cell_value 0.0);
  Alcotest.(check string) "sci" "1.230e-04" (Table.cell_value 1.23e-4)

let test_table_series_renders () =
  let s =
    {
      Table.title = "test series";
      xlabel = "x";
      ylabel = "y";
      points = [| (1.0, 0.5); (2.0, 0.25) |];
    }
  in
  let out = render (fun fmt -> Table.print_series fmt s) in
  Alcotest.(check bool) "has title" true (contains out "test series");
  Alcotest.(check bool) "has value" true (contains out "2.500e-01")

let test_table_surface_renders () =
  let s =
    {
      Table.title = "surf";
      xlabel = "cut";
      ylabel = "buf";
      zlabel = "loss";
      xs = [| 1.0; Float.infinity |];
      ys = [| 0.5 |];
      cells = [| [| 1e-3; 2e-3 |] |];
    }
  in
  let out = render (fun fmt -> Table.print_surface fmt s) in
  Alcotest.(check bool) "has inf column" true (contains out "inf");
  Alcotest.(check bool) "has cell" true (contains out "2.000e-03")

(* ------------------------------------------------------------------ *)
(* Data context *)

let test_data_traces_have_expected_scale () =
  let ctx = Lazy.force ctx in
  let mtv = Data.mtv ctx and bc = Data.bellcore ctx in
  Alcotest.(check bool) "mtv mean near 9.52" true
    (Float.abs (Lrd_trace.Trace.mean mtv -. 9.5222) < 0.5);
  Alcotest.(check bool) "bc mean near 1.5" true
    (Float.abs (Lrd_trace.Trace.mean bc -. 1.5) < 0.5)

let test_data_marginals_are_50_bin () =
  let ctx = Lazy.force ctx in
  Alcotest.(check bool) "mtv atoms" true
    (Lrd_dist.Marginal.size (Data.mtv_marginal ctx) <= 50);
  Alcotest.(check bool) "bc atoms" true
    (Lrd_dist.Marginal.size (Data.bc_marginal ctx) <= 50)

let test_data_theta_matches_epoch () =
  let ctx = Lazy.force ctx in
  (* Eq. 25 at infinite cutoff: theta = epoch * (alpha - 1). *)
  let alpha = Lrd_core.Model.alpha_of_hurst Data.mtv_hurst in
  let expected = Data.mtv_mean_epoch ctx *. (alpha -. 1.0) in
  Alcotest.(check (float 1e-9)) "theta" expected (Data.mtv_theta ctx)

let test_data_model_construction () =
  let ctx = Lazy.force ctx in
  let m = Data.mtv_model ctx ~cutoff:10.0 in
  Alcotest.(check bool) "mean rate" true
    (Float.abs
       (Lrd_core.Model.mean_rate m -. Lrd_trace.Trace.mean (Data.mtv ctx))
    < 1e-6);
  (* The covariance must vanish beyond the requested cutoff. *)
  Alcotest.(check (float 1e-12)) "cutoff respected" 0.0
    (Lrd_core.Model.covariance m 10.5)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_has_all_figures () =
  let expected =
    [
      "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
    ]
  in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing %s" id)
    expected;
  Alcotest.(check int) "figure count" 13 (List.length Registry.figures);
  Alcotest.(check bool) "has ablations" true
    (List.length Registry.ablations >= 4);
  Alcotest.(check bool) "has extensions" true
    (List.length Registry.extensions >= 5);
  (* Ids are unique across the whole registry. *)
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_rejects_unknown_id () =
  let ctx = Lazy.force ctx in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Registry.run: unknown id \"nope\"") (fun () ->
      ignore (Registry.run ~only:[ "nope" ] ctx Format.str_formatter))

let run_entry id =
  let ctx = Lazy.force ctx in
  match Registry.find id with
  | None -> Alcotest.failf "no entry %s" id
  | Some e -> render (fun fmt -> e.Registry.run ctx fmt)

(* Each figure executes and emits its title. *)
let test_every_entry_runs () =
  List.iter
    (fun e ->
      let out = run_entry e.Registry.id in
      if String.length out < 40 then
        Alcotest.failf "%s produced no meaningful output" e.Registry.id)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Headline shapes of the evaluation *)

let test_fig4_correlation_horizon_shape () =
  let ctx = Lazy.force ctx in
  let s = Fig04.compute ctx in
  let n_cut = Array.length s.Table.xs in
  Array.iteri
    (fun row _buffer ->
      let cells = s.Table.cells.(row) in
      (* Loss grows (weakly) with the cutoff... *)
      for col = 1 to n_cut - 1 do
        if cells.(col) < cells.(col - 1) *. 0.8 -. 1e-12 then
          Alcotest.failf "row %d: loss dropped sharply with cutoff" row
      done;
      (* ... and the step from the largest finite cutoff to infinity is
         small relative to the step from the smallest cutoff (the
         correlation horizon). *)
      let lo = cells.(0) and hi = cells.(n_cut - 1) in
      let penultimate = cells.(n_cut - 2) in
      if hi > 0.0 && penultimate > 0.0 then begin
        let tail_ratio = hi /. penultimate in
        let full_ratio = if lo > 0.0 then hi /. lo else Float.infinity in
        if not (tail_ratio < full_ratio || full_ratio < 2.0) then
          Alcotest.failf "row %d: no flattening (tail %.2f full %.2f)" row
            tail_ratio full_ratio
      end)
    s.Table.ys

let test_fig4_loss_decreases_with_buffer () =
  let ctx = Lazy.force ctx in
  let s = Fig04.compute ctx in
  Array.iteri
    (fun col _ ->
      for row = 1 to Array.length s.Table.ys - 1 do
        if
          s.Table.cells.(row).(col)
          > s.Table.cells.(row - 1).(col) *. 1.2 +. 1e-12
        then Alcotest.failf "col %d: loss grew with buffer" col
      done)
    s.Table.xs

let test_fig9_marginal_dominates () =
  let ctx = Lazy.force ctx in
  let _, mtv, bc = Fig09.compute ctx in
  (* At the largest cutoff the Bellcore marginal must lose orders of
     magnitude more than the video marginal (paper: Fig. 9). *)
  let n = Array.length mtv in
  Alcotest.(check bool) "orders of magnitude" true
    (bc.(n - 1) > 10.0 *. mtv.(n - 1))

let test_fig10_scaling_beats_hurst () =
  let ctx = Lazy.force ctx in
  let s = Fig10.compute ctx in
  (* Across the scaling axis (fix middle H row): max/min spans > 10x.
     Across the H axis (fix scaling = 1 column): span is smaller. *)
  let mid_row = Array.length s.Table.ys / 2 in
  let row = s.Table.cells.(mid_row) in
  let scaling_span =
    Lrd_numerics.Array_ops.max_element row
    /. Float.max 1e-300 (Lrd_numerics.Array_ops.min_element row)
  in
  (* Column where scaling = 1. *)
  let col_one = ref 0 in
  Array.iteri (fun i x -> if x = 1.0 then col_one := i) s.Table.xs;
  let col = Array.map (fun r -> r.(!col_one)) s.Table.cells in
  let hurst_span =
    Lrd_numerics.Array_ops.max_element col
    /. Float.max 1e-300 (Lrd_numerics.Array_ops.min_element col)
  in
  Alcotest.(check bool) "scaling spans more than H" true
    (scaling_span > hurst_span)

let test_fig11_superposition_reduces_loss () =
  let ctx = Lazy.force ctx in
  let s = Fig11.compute ctx in
  Array.iteri
    (fun row _ ->
      let cells = s.Table.cells.(row) in
      let n = Array.length cells in
      (* More streams, (weakly) less loss; the largest stream count cuts
         loss by at least an order of magnitude. *)
      Alcotest.(check bool) "endpoint drop" true
        (cells.(n - 1) < cells.(0) /. 10.0))
    s.Table.ys

let test_fig12_scaling_beats_buffering () =
  let ctx = Lazy.force ctx in
  let s = Fig12.compute ctx in
  (* Narrowing a = 1 -> 0.5 at the smallest buffer beats growing the
     buffer to its maximum at a = 1 (paper Section III, third set). *)
  let col_of v =
    let c = ref (-1) in
    Array.iteri (fun i x -> if x = v then c := i) s.Table.xs;
    !c
  in
  let a_half = col_of 0.5 and a_one = col_of 1.0 in
  let first_row = 0 and last_row = Array.length s.Table.ys - 1 in
  let narrow_small_buffer = s.Table.cells.(first_row).(a_half) in
  let wide_big_buffer = s.Table.cells.(last_row).(a_one) in
  Alcotest.(check bool) "marginal beats buffer" true
    (narrow_small_buffer < wide_big_buffer)

let test_fig5_bellcore_same_shapes () =
  let ctx = Lazy.force ctx in
  let s = Fig05.compute ctx in
  (* Loss grows (weakly) in the cutoff and falls (weakly) in the buffer. *)
  Array.iteri
    (fun row _ ->
      for col = 1 to Array.length s.Table.xs - 1 do
        if s.Table.cells.(row).(col) < s.Table.cells.(row).(col - 1) *. 0.8
        then Alcotest.failf "row %d col %d: dropped with cutoff" row col
      done)
    s.Table.ys;
  Array.iteri
    (fun col _ ->
      for row = 1 to Array.length s.Table.ys - 1 do
        if
          s.Table.cells.(row).(col)
          > s.Table.cells.(row - 1).(col) *. 1.2 +. 1e-12
        then Alcotest.failf "col %d: grew with buffer" col
      done)
    s.Table.xs

let test_fig13_bellcore_scaling_beats_buffering () =
  let ctx = Lazy.force ctx in
  let s = Fig13.compute ctx in
  let col_of v =
    let c = ref (-1) in
    Array.iteri (fun i x -> if x = v then c := i) s.Table.xs;
    !c
  in
  let a_half = col_of 0.5 and a_one = col_of 1.0 in
  let narrow_small = s.Table.cells.(0).(a_half) in
  let wide_big = s.Table.cells.(Array.length s.Table.ys - 1).(a_one) in
  Alcotest.(check bool) "marginal beats buffer (BC)" true
    (narrow_small < wide_big)

let test_fig11_loss_monotone_in_streams () =
  let ctx = Lazy.force ctx in
  let s = Fig11.compute ctx in
  Array.iteri
    (fun row _ ->
      let cells = s.Table.cells.(row) in
      for col = 1 to Array.length cells - 1 do
        if cells.(col) > cells.(col - 1) *. 1.2 +. 1e-12 then
          Alcotest.failf "row %d: loss grew with streams" row
      done)
    s.Table.ys

let test_fig9_series_monotone_in_cutoff () =
  let ctx = Lazy.force ctx in
  let _, mtv, bc = Fig09.compute ctx in
  let check name series =
    let n = Array.length series in
    for i = 1 to n - 1 do
      if series.(i) < series.(i - 1) *. 0.8 -. 1e-15 then
        Alcotest.failf "%s dropped at %d" name i
    done
  in
  check "mtv" mtv;
  check "bellcore" bc

let test_fig7_simulation_flattens_in_cutoff () =
  let ctx = Lazy.force ctx in
  let s = Fig07.compute ctx in
  (* At the smallest buffer (where a quick trace still sees losses), the
     loss at the largest finite block is within a small factor of the
     unshuffled loss. *)
  let row = s.Table.cells.(0) in
  let n = Array.length row in
  let unshuffled = row.(n - 1) in
  Alcotest.(check bool) "nonzero at smallest buffer" true (unshuffled > 0.0);
  let largest_finite = row.(n - 2) in
  Alcotest.(check bool) "flattened" true
    (largest_finite > unshuffled /. 3.0
    && largest_finite < unshuffled *. 3.0)

let test_fig7_surface_computed_once () =
  (* Figs. 7 and 14 read one surface, held by the context; it equals a
     fresh computation of the same sweep. *)
  let ctx = Lazy.force ctx in
  let cells = (Fig07.compute ctx).Table.cells in
  Alcotest.(check bool) "shared" true (cells == (Fig07.compute ctx).Table.cells);
  let fresh =
    Fig07.surface ctx ~trace:(Data.mtv ctx)
      ~utilization:Data.mtv_utilization ~title:Fig07.title
  in
  Alcotest.(check bool) "same cells" true (cells = fresh.Table.cells)

(* ------------------------------------------------------------------ *)
(* Sweep helpers *)

let test_sweep_grids () =
  let b = Sweep.buffers ~quick:true () in
  Alcotest.(check int) "quick buffers" 4 (Array.length b);
  Alcotest.(check bool) "ascending" true (b.(0) < b.(Array.length b - 1));
  let c = Sweep.cutoffs ~quick:false () in
  Alcotest.(check bool) "ends with inf" true
    (c.(Array.length c - 1) = Float.infinity)

let test_sweep_blocks_of_cutoffs () =
  let trace =
    Lrd_trace.Trace.create ~rates:(Array.make 100 1.0) ~slot:0.01
  in
  let blocks =
    Sweep.shuffle_blocks_of_cutoffs trace [| 0.001; 0.1; Float.infinity |]
  in
  (match blocks.(0) with
  | _, Some 1 -> ()
  | _ -> Alcotest.fail "sub-slot cutoff should clamp to one sample");
  (match blocks.(1) with
  | _, Some 10 -> ()
  | _ -> Alcotest.fail "0.1 s over 10 ms slots is 10 samples");
  match blocks.(2) with
  | _, None -> ()
  | _ -> Alcotest.fail "infinity maps to unshuffled"

let test_sweep_surface_layout () =
  let cells =
    Sweep.surface ~xs:[| 1.0; 2.0; 3.0 |] ~ys:[| 10.0; 20.0 |]
      ~f:(fun ~x ~y -> x +. y)
      ()
  in
  Alcotest.(check int) "rows" 2 (Array.length cells);
  Alcotest.(check int) "cols" 3 (Array.length cells.(0));
  Alcotest.(check (float 1e-12)) "cell" 23.0 cells.(1).(2)

(* ------------------------------------------------------------------ *)
(* Scheduled sweeps *)

(* A fig12-style cell: marginal scaling on the x axis, buffer on the y
   axis.  Scaling is mean-preserving, so the buffer in work units is
   constant along a row and the scheduler's neighbour warm-starts
   apply. *)
let fig12_cell ctx a ~buffer_seconds =
  let marginal =
    Lrd_dist.Marginal.scale ~clamp:true (Data.mtv_marginal ctx) ~factor:a
  in
  let model =
    Lrd_core.Model.of_hurst ~marginal ~hurst:Data.mtv_hurst
      ~theta:(Data.mtv_theta ctx) ~cutoff:Float.infinity
  in
  Lrd_core.Solver.State.create_utilization ~params:(Data.solver_params ctx)
    model ~utilization:Data.mtv_utilization ~buffer_seconds

let test_scheduled_row_certified_and_contains_cold () =
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffer_seconds = 1.0 in
  (* Independent cold solves of the same row, one state per cell. *)
  let cold =
    Array.map
      (fun a ->
        let st = fig12_cell ctx a ~buffer_seconds in
        S.State.run st;
        S.State.result st)
      scalings
  in
  let warm =
    (Sweep.scheduled_surface ~xs:scalings ~ys:[| buffer_seconds |]
       ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
       ()).(0)
  in
  let params = Data.solver_params ctx in
  Array.iteri
    (fun i (c : S.result) ->
      let w = warm.(i) in
      Alcotest.(check bool) "certified: lower <= upper" true
        (w.S.lower_bound <= w.S.upper_bound);
      (* Under the uniform policy every cell must converge to the
         solver's own gap target (or fall below the negligible-loss
         floor). *)
      Alcotest.(check bool) "converged" true w.S.converged;
      Alcotest.(check bool) "gap within policy target" true
        (w.S.upper_bound < params.S.negligible_loss
        || w.S.upper_bound -. w.S.lower_bound
           <= params.S.tolerance
              *. ((w.S.upper_bound +. w.S.lower_bound) /. 2.0)
              +. 1e-12);
      (* Both intervals bracket the same true loss rate. *)
      Alcotest.(check bool) "warm and cold intervals overlap" true
        (w.S.lower_bound <= c.S.upper_bound +. 1e-12
        && c.S.lower_bound <= w.S.upper_bound +. 1e-12);
      (* The cold point estimate is the midpoint of an interval that
         also contains the truth, so it sits at most half the cold
         width outside the warm interval. *)
      let slack = (0.5 *. (c.S.upper_bound -. c.S.lower_bound)) +. 1e-12 in
      Alcotest.(check bool) "warm interval contains cold estimate" true
        (c.S.loss >= w.S.lower_bound -. slack
        && c.S.loss <= w.S.upper_bound +. slack))
    cold

let test_scheduled_budget_stops_everywhere_certified () =
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffers = Sweep.buffers ~quick:true ~max_seconds:5.0 () in
  let policy = { Sweep.contrast = None; iteration_budget = Some 200 } in
  let cells =
    Sweep.scheduled_surface ~policy ~slice:64 ~xs:scalings ~ys:buffers
      ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
      ()
  in
  Array.iter
    (Array.iter (fun (r : S.result) ->
         Alcotest.(check bool) "budget-stopped cell still certified" true
           (r.S.lower_bound <= r.S.upper_bound
           && r.S.lower_bound >= 0.0
           && Float.is_finite r.S.upper_bound)))
    cells

let test_scheduled_matches_uniform_sweep_losses () =
  (* The scheduler under the uniform policy must land inside the same
     certified tolerance band as the classic cold sweep: compare the
     whole quick fig12 surface cell by cell via interval overlap. *)
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffers = Sweep.buffers ~quick:true ~max_seconds:5.0 () in
  let scheduled =
    Sweep.scheduled_surface ~xs:scalings ~ys:buffers
      ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
      ()
  in
  Array.iteri
    (fun iy row ->
      Array.iteri
        (fun ix (w : S.result) ->
          let st = fig12_cell ctx scalings.(ix) ~buffer_seconds:buffers.(iy) in
          S.State.run st;
          let c = S.State.result st in
          Alcotest.(check bool) "intervals overlap" true
            (w.S.lower_bound <= c.S.upper_bound +. 1e-12
            && c.S.lower_bound <= w.S.upper_bound +. 1e-12))
        row)
    scheduled

let test_scheduled_from_axis_certified () =
  (* The axis-derived contrast policy (bare `--gap-policy contrast`)
     must leave every cell certified: the cut can widen intervals below
     the window but never invalidate them, and cells inside the window
     still converge to the uniform target. *)
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffers = Sweep.buffers ~quick:true ~max_seconds:5.0 () in
  let policy = { Sweep.contrast = Some Sweep.From_axis; iteration_budget = None } in
  let cells =
    Sweep.scheduled_surface ~policy ~xs:scalings ~ys:buffers
      ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
      ()
  in
  let converged = ref 0 in
  Array.iter
    (Array.iter (fun (r : S.result) ->
         if r.S.converged then incr converged;
         Alcotest.(check bool) "from-axis cell certified" true
           (r.S.lower_bound <= r.S.upper_bound
           && r.S.lower_bound >= 0.0
           && Float.is_finite r.S.upper_bound)))
    cells;
  Alcotest.(check bool) "some cells converge" true (!converged > 0)

(* ------------------------------------------------------------------ *)
(* fig11_scale: superposition at production scale *)

let test_fig11_scale_population_partition () =
  List.iter
    (fun n ->
      let classes = Fig11_scale.population ~n in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 classes in
      Alcotest.(check int)
        (Printf.sprintf "counts sum to %d" n)
        n total;
      List.iter
        (fun (_, c) ->
          Alcotest.(check bool) "count nonnegative" true (c >= 0))
        classes)
    [ 1; 7; 10; 99; 1000; 12_345 ];
  Alcotest.check_raises "rejects n = 0"
    (Invalid_argument "Fig11_scale.population: n must be >= 1") (fun () ->
      ignore (Fig11_scale.population ~n:0))

let test_fig11_scale_loss_decreases_with_n () =
  (* The figure's whole point: at fixed utilization, multiplexing more
     sources decreases the certified loss along every Hurst row. *)
  let ctx = Lazy.force ctx in
  let s = Fig11_scale.compute ctx in
  Array.iteri
    (fun iy row ->
      Array.iteri
        (fun ix v ->
          if ix > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "loss(H=%g) nonincreasing at N=%g" s.Table.ys.(iy)
                 s.Table.xs.(ix))
              true
              (v <= row.(ix - 1) +. 1e-12))
        row)
    s.Table.cells

(* ------------------------------------------------------------------ *)
(* Shard: process-level sharding of the scheduled sweeps *)

let test_shard_spec_parsing () =
  (match Shard.parse_spec "3/8" with
  | Ok s ->
      Alcotest.(check int) "index" 3 s.Shard.index;
      Alcotest.(check int) "count" 8 s.Shard.count;
      Alcotest.(check string) "round-trips" "3/8" (Shard.spec_string s)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun raw ->
      match Shard.parse_spec raw with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" raw)
      | Error _ -> ())
    [ ""; "0/2"; "3/2"; "1/0"; "a/b"; "1"; "1/2/3"; "-1/2"; "2/-1"; "1/2 " ]

let test_shard_rows_partition () =
  (* Round-robin row ownership: every row of any grid height belongs to
     exactly one of the n shards. *)
  List.iter
    (fun count ->
      for iy = 0 to 24 do
        let owners =
          List.filter
            (fun index ->
              Shard.owns_row (Shard.compute { Shard.index; count }) ~iy)
            (List.init count (fun i -> i + 1))
        in
        Alcotest.(check int)
          (Printf.sprintf "row %d owners among %d shards" iy count)
          1 (List.length owners)
      done)
    [ 1; 2; 3; 5 ]

let test_shard_digest_semantics () =
  (* The params digest must ignore parallelism (shards may run at
     different job counts) but react to anything that changes figure
     values. *)
  let fields ~seed ~jobs =
    [
      ("seed", Lrd_obs.Json.Str seed);
      ("jobs", Lrd_obs.Json.Num (float_of_int jobs));
      ("quick", Lrd_obs.Json.Bool true);
    ]
  in
  let d = Shard.digest ~figure:"fig12" (fields ~seed:"a" ~jobs:1) in
  Alcotest.(check string) "jobs never changes the digest" d
    (Shard.digest ~figure:"fig12" (fields ~seed:"a" ~jobs:8));
  Alcotest.(check bool) "seed changes the digest" true
    (d <> Shard.digest ~figure:"fig12" (fields ~seed:"b" ~jobs:1));
  Alcotest.(check bool) "figure changes the digest" true
    (d <> Shard.digest ~figure:"fig4" (fields ~seed:"a" ~jobs:1))

(* One shard's slice of the quick fig12 grid, computed in-process:
   returns the cells-file JSON a worker would write plus the digest it
   was computed under. *)
let shard_slice ?seed { Shard.index; count } =
  let shard = Shard.compute { Shard.index; count } in
  let ctx = Data.create ?seed ~shard ~quick:true () in
  Fun.protect
    ~finally:(fun () -> Data.teardown ctx)
    (fun () ->
      ignore (Fig12.compute ctx);
      let digest =
        Shard.digest ~figure:"fig12" (Data.manifest_fields ctx)
      in
      (digest, Shard.cells_json shard ~figure:"fig12" ~digest))

let whole_fig12 =
  lazy
    (let ctx = Data.create ~quick:true () in
     Fun.protect
       ~finally:(fun () -> Data.teardown ctx)
       (fun () -> Fig12.compute ctx))

let prop_shard_merge_bitwise_identical =
  QCheck.Test.make ~name:"any k/n partition merges bitwise-identical"
    ~count:3
    (QCheck.make QCheck.Gen.(int_range 1 3))
    (fun count ->
      let whole = Lazy.force whole_fig12 in
      let slices =
        List.map
          (fun i -> shard_slice { Shard.index = i + 1; count })
          (List.init count Fun.id)
      in
      let digest = fst (List.hd slices) in
      match Shard.of_cells_json ~figure:"fig12" ~digest (List.map snd slices)
      with
      | Error e -> QCheck.Test.fail_report e
      | Ok (replay, per_shard) ->
          let total = List.fold_left (fun a (_, c) -> a + c) 0 per_shard in
          if total <> Array.length whole.Table.ys * Array.length whole.Table.xs
          then QCheck.Test.fail_report "per-shard cells do not cover the grid";
          let ctx = Data.create ~shard:replay ~quick:true () in
          let merged =
            Fun.protect
              ~finally:(fun () -> Data.teardown ctx)
              (fun () -> Fig12.compute ctx)
          in
          Array.for_all2
            (fun (wrow : float array) mrow ->
              Array.for_all2
                (fun w m -> Int64.bits_of_float w = Int64.bits_of_float m)
                wrow mrow)
            whole.Table.cells merged.Table.cells)

let test_shard_merge_rejections () =
  let digest, c1 = shard_slice { Shard.index = 1; count = 2 } in
  let _, c2 = shard_slice { Shard.index = 2; count = 2 } in
  let expect_error name ~digest cells =
    match Shard.of_cells_json ~figure:"fig12" ~digest cells with
    | Ok _ -> Alcotest.fail (name ^ ": merge should be refused")
    | Error _ -> ()
  in
  (* The valid pair merges — everything below must be a refusal. *)
  (match Shard.of_cells_json ~figure:"fig12" ~digest [ c1; c2 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("valid pair refused: " ^ e));
  expect_error "mismatched digest" ~digest:"0123456789abcdef" [ c1; c2 ];
  expect_error "duplicate index" ~digest [ c1; c1 ];
  expect_error "missing shard" ~digest [ c1 ];
  expect_error "malformed cells" ~digest [ Lrd_obs.Json.Obj [] ];
  (* A shard of a different partition arity cannot join this set. *)
  let _, c13 = shard_slice { Shard.index = 1; count = 3 } in
  expect_error "mixed counts" ~digest [ c13; c2 ];
  (* A shard computed under a different seed carries a different params
     digest, so the set is refused — the CLI surfaces this as exit 2. *)
  let _, c2_seed = shard_slice ~seed:999L { Shard.index = 2; count = 2 } in
  expect_error "mismatched seed" ~digest [ c1; c2_seed ]

let () =
  Alcotest.run "experiments"
    [
      ( "table",
        [
          Alcotest.test_case "axis values" `Quick test_table_axis_value;
          Alcotest.test_case "cell values" `Quick test_table_cell_value;
          Alcotest.test_case "series renders" `Quick test_table_series_renders;
          Alcotest.test_case "surface renders" `Quick
            test_table_surface_renders;
        ] );
      ( "data",
        [
          Alcotest.test_case "trace scales" `Slow
            test_data_traces_have_expected_scale;
          Alcotest.test_case "50-bin marginals" `Slow
            test_data_marginals_are_50_bin;
          Alcotest.test_case "theta matches epoch" `Slow
            test_data_theta_matches_epoch;
          Alcotest.test_case "model construction" `Slow
            test_data_model_construction;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all figures present" `Quick
            test_registry_has_all_figures;
          Alcotest.test_case "rejects unknown id" `Slow
            test_registry_rejects_unknown_id;
          Alcotest.test_case "every entry runs (quick mode)" `Slow
            test_every_entry_runs;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "fig4: correlation horizon" `Slow
            test_fig4_correlation_horizon_shape;
          Alcotest.test_case "fig4: loss decreases with buffer" `Slow
            test_fig4_loss_decreases_with_buffer;
          Alcotest.test_case "fig9: marginal dominates" `Slow
            test_fig9_marginal_dominates;
          Alcotest.test_case "fig10: scaling beats Hurst" `Slow
            test_fig10_scaling_beats_hurst;
          Alcotest.test_case "fig11: superposition pays" `Slow
            test_fig11_superposition_reduces_loss;
          Alcotest.test_case "fig12: scaling beats buffering" `Slow
            test_fig12_scaling_beats_buffering;
          Alcotest.test_case "fig7: surface computed once" `Slow
            test_fig7_surface_computed_once;
          Alcotest.test_case "fig7: simulation flattens" `Slow
            test_fig7_simulation_flattens_in_cutoff;
          Alcotest.test_case "fig5: Bellcore shapes" `Slow
            test_fig5_bellcore_same_shapes;
          Alcotest.test_case "fig13: scaling beats buffering (BC)" `Slow
            test_fig13_bellcore_scaling_beats_buffering;
          Alcotest.test_case "fig11: monotone in streams" `Slow
            test_fig11_loss_monotone_in_streams;
          Alcotest.test_case "fig9: monotone in cutoff" `Slow
            test_fig9_series_monotone_in_cutoff;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "grids" `Quick test_sweep_grids;
          Alcotest.test_case "blocks of cutoffs" `Quick
            test_sweep_blocks_of_cutoffs;
          Alcotest.test_case "surface layout" `Quick test_sweep_surface_layout;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "warm row certified, contains cold" `Slow
            test_scheduled_row_certified_and_contains_cold;
          Alcotest.test_case "budget stop keeps certification" `Slow
            test_scheduled_budget_stops_everywhere_certified;
          Alcotest.test_case "matches uniform sweep" `Slow
            test_scheduled_matches_uniform_sweep_losses;
          Alcotest.test_case "from-axis contrast stays certified" `Slow
            test_scheduled_from_axis_certified;
        ] );
      ( "fig11_scale",
        [
          Alcotest.test_case "population partitions exactly" `Quick
            test_fig11_scale_population_partition;
          Alcotest.test_case "loss decreases with N" `Slow
            test_fig11_scale_loss_decreases_with_n;
        ] );
      ( "shard",
        [
          Alcotest.test_case "spec parsing" `Quick test_shard_spec_parsing;
          Alcotest.test_case "rows partition exactly" `Quick
            test_shard_rows_partition;
          Alcotest.test_case "digest semantics" `Quick
            test_shard_digest_semantics;
          QCheck_alcotest.to_alcotest prop_shard_merge_bitwise_identical;
          Alcotest.test_case "merge rejections" `Slow
            test_shard_merge_rejections;
        ] );
    ]
