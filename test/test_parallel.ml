(* The domain pool's scheduling/determinism contract, the indexed rng
   splitting it relies on, and the cross-cell workload cache: parallel
   sweeps must be byte-identical to sequential ones, and caching /
   memoization must never change a computed value. *)

open Lrd_parallel

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let worker_counts = [ 0; 1; 2; 3 ]

let test_map_matches_sequential () =
  let xs = Array.init 97 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          let got = Pool.map pool (fun i -> i * i) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map, %d workers" workers)
            expected got))
    worker_counts

let test_map_empty () =
  Pool.with_pool ~workers:2 (fun pool ->
      Alcotest.(check (array int))
        "empty input" [||]
        (Pool.map pool (fun i -> i) [||]))

let test_map2_grid_orientation () =
  let xs = [| "a"; "b"; "c" |] and ys = [| 1; 2 |] in
  let f x y = Printf.sprintf "%s%d" x y in
  let expected = Array.map (fun y -> Array.map (fun x -> f x y) xs) ys in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          let got = Pool.map2_grid pool ~xs ~ys ~f in
          Alcotest.(check (array (array string)))
            (Printf.sprintf "grid, %d workers" workers)
            expected got))
    worker_counts

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~workers:2 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun i -> if i = 13 then raise (Boom i) else i)
              (Array.init 64 (fun i -> i)));
         Alcotest.fail "expected Boom"
       with Boom 13 -> ());
      (* The same pool keeps working after a failed task set. *)
      let xs = Array.init 32 (fun i -> i) in
      Alcotest.(check (array int))
        "pool reusable after exception"
        (Array.map (fun i -> i + 1) xs)
        (Pool.map pool (fun i -> i + 1) xs))

let test_shutdown_idempotent_and_final () =
  let pool = Pool.create ~workers:1 () in
  Alcotest.(check int) "parallelism" 2 (Pool.parallelism pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.iter: pool has been shut down") (fun () ->
      ignore (Pool.map pool (fun i -> i) [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Indexed rng splitting *)

let test_split_indexed () =
  let base () = Lrd_rng.Rng.create ~seed:42L in
  let draws rng = Array.init 8 (fun _ -> Lrd_rng.Rng.uint64 rng) in
  (* Same index from the same state: the same stream. *)
  let a = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:3)
  and b = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:3) in
  Alcotest.(check bool) "same index, same stream" true (a = b);
  (* Distinct indices: distinct streams. *)
  let c = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:4) in
  Alcotest.(check bool) "distinct index, distinct stream" false (a = c);
  (* Splitting does not advance the parent: the order of splits and
     draws cannot matter, or parallel cells would see different
     streams than sequential ones. *)
  let r1 = base () in
  let direct = draws r1 in
  let r2 = base () in
  for i = 0 to 9 do
    ignore (Lrd_rng.Rng.split_indexed r2 ~index:i)
  done;
  Alcotest.(check bool)
    "split_indexed leaves the parent untouched" true
    (direct = draws r2);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_indexed: index must be nonnegative")
    (fun () -> ignore (Lrd_rng.Rng.split_indexed (base ()) ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Arena: per-domain memoization.  Within one domain the builder runs
   once per key and the same value comes back; a different domain gets
   its own independently-built value (no sharing, hence no locking). *)

let test_arena_memoizes_per_domain () =
  let builds = Atomic.make 0 in
  let arena =
    Arena.create (fun key ->
        Atomic.incr builds;
        Array.make 4 key)
  in
  let a = Arena.get arena 7 in
  let b = Arena.get arena 7 in
  let c = Arena.get arena 9 in
  Alcotest.(check bool) "same key, same array" true (a == b);
  Alcotest.(check bool) "distinct keys, distinct arrays" false (a == c);
  Alcotest.(check int) "one build per key" 2 (Atomic.get builds);
  Alcotest.(check int) "size counts this domain's entries" 2 (Arena.size arena);
  (* A fresh domain must not see this domain's entries: its first get
     triggers a build of its own. *)
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           let d = Arena.get arena 7 in
           let e = Arena.get arena 7 in
           (d == e, Arena.size arena)))
  in
  Alcotest.(check bool) "other domain memoizes too" true (fst other);
  Alcotest.(check int) "other domain has its own table" 1 (snd other);
  Alcotest.(check int) "other domain rebuilt key 7" 3 (Atomic.get builds);
  Alcotest.(check int) "this domain's table untouched" 2 (Arena.size arena)

(* ------------------------------------------------------------------ *)
(* Sweep grid validation *)

let test_buffers_validation () =
  (try
     ignore (Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.005 ());
     Alcotest.fail "expected Invalid_argument for max_seconds = 0.005"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       "message names the bound" true
       (String.length msg > 0 && msg.[0] = 'S' (* "Sweep.buffers: ..." *)));
  (try
     ignore (Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.01 ());
     Alcotest.fail "expected Invalid_argument for max_seconds = 0.01"
   with Invalid_argument _ -> ());
  let bs = Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.5 () in
  Alcotest.(check int) "valid grid size" 4 (Array.length bs)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: the fig4 quick table rendered from contexts
   of parallelism 1, 2 and recommended_domain_count must be
   byte-identical (the figure's cells go through the solver, the
   workload cache and the pool all at once). *)

let fig4_table ~jobs =
  let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
  Fun.protect
    ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
    (fun () ->
      render (fun fmt ->
          Lrd_experiments.Table.print_surface fmt
            (Lrd_experiments.Fig04.compute ctx)))

let test_fig4_deterministic_across_pools () =
  let sequential = fig4_table ~jobs:1 in
  Alcotest.(check bool) "non-empty" true (String.length sequential > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fig4 at jobs=%d" jobs)
        sequential (fig4_table ~jobs))
    [ 2; max 2 (Domain.recommended_domain_count ()) ]

let test_fig7_deterministic_across_pools () =
  (* fig7 exercises the per-column rng splitting (simulation path). *)
  let table ~jobs =
    let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
    Fun.protect
      ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
      (fun () ->
        render (fun fmt ->
            Lrd_experiments.Table.print_surface fmt
              (Lrd_experiments.Fig07.compute ctx)))
  in
  Alcotest.(check string) "fig7 at jobs=2" (table ~jobs:1) (table ~jobs:2)

let test_ext_packet_deterministic_across_pools () =
  (* ext-packet runs its packet sizes as pool tasks, each on its own
     split_indexed stream. *)
  let table ~jobs =
    let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
    Fun.protect
      ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
      (fun () -> render (Lrd_experiments.Ext_packet.run ctx))
  in
  Alcotest.(check string) "ext-packet at jobs=2" (table ~jobs:1)
    (table ~jobs:2)

(* fig13 seeds the most cells from their neighbours, and each seeded
   workspace is built in the cell's first slice on whichever domain
   runs it.  The shuffled-trace and fluid-queue experiments: fig8
   shuffles its columns on the pool, abl-markov runs one multi-buffer
   pass per trace on it, and ext-ams runs its finite-buffer levels as
   lanes of one pass.  Each prints the same at every pool size. *)
let experiment_deterministic name run () =
  let output ~jobs =
    let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
    Fun.protect
      ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
      (fun () -> render (run ctx))
  in
  let sequential = output ~jobs:1 in
  Alcotest.(check bool) "non-empty" true (String.length sequential > 0);
  Alcotest.(check string) (name ^ " at jobs=2") sequential (output ~jobs:2)

(* The spectral estimators run on each domain's cached Fft.Real plans:
   whichever domain runs an estimate, on a cold or a warm plan, its
   floats are bitwise those of a sequential run.  Each length appears
   twice, and 1000/1024 share a transform size, so tasks also reuse
   plans another estimate has just used. *)
let test_estimators_deterministic_across_domains () =
  let bits = Array.map Int64.bits_of_float in
  let estimate n =
    let rng = Lrd_rng.Rng.create ~seed:(Int64.of_int n) in
    let x = Lrd_trace.Fgn.davies_harte rng ~hurst:0.8 ~n in
    let acf = Lrd_stats.Autocorr.autocorrelation x ~max_lag:(n / 2) in
    let w = Lrd_stats.Whittle.local_whittle x in
    let g = Lrd_stats.Hurst.gph x in
    ( bits acf,
      bits [| w.Lrd_stats.Whittle.hurst; w.Lrd_stats.Whittle.objective |],
      bits (Array.concat [ [| g.Lrd_stats.Hurst.hurst |]; g.xs; g.ys ]) )
  in
  let lengths = [| 700; 1000; 1024; 3000; 700; 1024; 3000; 1000 |] in
  let sequential = Array.map estimate lengths in
  Pool.with_pool ~workers:2 (fun pool ->
      Array.iteri
        (fun i got ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d bitwise" lengths.(i))
            true
            (got = sequential.(i)))
        (Pool.map pool estimate lengths))

(* ------------------------------------------------------------------ *)
(* Workload cache: exactly one model + one workload entry per distinct
   key, every other lookup a hit, and cached solves bitwise-equal to
   uncached ones. *)

let test_cache_counters_and_values () =
  let marginal =
    Lrd_dist.Marginal.of_points [ (0.0, 0.25); (1.0, 0.5); (3.0, 0.25) ]
  in
  let model_of ~cutoff =
    Lrd_core.Model.of_hurst ~marginal ~hurst:0.8 ~theta:0.05 ~cutoff
  in
  let cutoffs = [| 0.5; 5.0; Float.infinity |] in
  let buffers = [| 0.05; 0.2; 0.8 |] in
  let cache = Lrd_core.Workload.Cache.create () in
  let cached =
    Array.map
      (fun buffer_seconds ->
        Array.map
          (fun cutoff ->
            let key = Lrd_experiments.Sweep.cell_key cutoff in
            let model =
              Lrd_core.Workload.Cache.model cache ~key (fun () ->
                  model_of ~cutoff)
            in
            (Lrd_core.Solver.solve_utilization ~cache:(cache, key) model
               ~utilization:0.8 ~buffer_seconds)
              .Lrd_core.Solver.loss)
          cutoffs)
      buffers
  in
  let cells = Array.length cutoffs * Array.length buffers in
  (* Each cell performs one model lookup and one workload lookup; only
     the first lookup of each distinct key builds an entry. *)
  Alcotest.(check int)
    "lookups" (2 * cells)
    (Lrd_core.Workload.Cache.lookups cache);
  Alcotest.(check int)
    "entries" (2 * Array.length cutoffs)
    (Lrd_core.Workload.Cache.entries cache);
  Alcotest.(check int)
    "hits"
    ((2 * cells) - 2 * Array.length cutoffs)
    (Lrd_core.Workload.Cache.hits cache);
  let uncached =
    Array.map
      (fun buffer_seconds ->
        Array.map
          (fun cutoff ->
            (Lrd_core.Solver.solve_utilization (model_of ~cutoff)
               ~utilization:0.8 ~buffer_seconds)
              .Lrd_core.Solver.loss)
          cutoffs)
      buffers
  in
  Alcotest.(check bool) "cached solves bitwise-equal" true (cached = uncached)

let test_memoized_workload_identical () =
  let marginal =
    Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.3); (5.0, 0.2) ]
  in
  let model =
    Lrd_core.Model.of_hurst ~marginal ~hurst:0.85 ~theta:0.03 ~cutoff:2.0
  in
  let check_at model ~service_rate ~buffer =
    let plain = Lrd_core.Workload.create model ~service_rate in
    let memo = Lrd_core.Workload.create ~memoize:true model ~service_rate in
    List.iter
      (fun bins ->
        let a = Lrd_core.Workload.discretize plain ~buffer ~bins in
        let b = Lrd_core.Workload.discretize memo ~buffer ~bins in
        Alcotest.(check bool)
          (Printf.sprintf "bins %d identical" bins)
          true
          (a.Lrd_core.Workload.lower = b.Lrd_core.Workload.lower
          && a.Lrd_core.Workload.upper = b.Lrd_core.Workload.upper);
        (* And the batch grid is the scalar survival functions bitwise
           (eqs. 21-22 from [survival_ge] / [survival_gt], clamped). *)
        let d = buffer /. float_of_int bins in
        let x k = float_of_int (k - bins) *. d in
        let ge k = Lrd_core.Workload.survival_ge plain (x k)
        and gt k = Lrd_core.Workload.survival_gt plain (x k) in
        let clamp v = if v < 0.0 then 0.0 else v in
        let bits = Array.map Int64.bits_of_float in
        let lower =
          Array.init ((2 * bins) + 1) (fun k ->
              clamp
                (if k = 0 then 1.0 -. ge (k + 1)
                 else if k = 2 * bins then ge k
                 else ge k -. ge (k + 1)))
        and upper =
          Array.init ((2 * bins) + 1) (fun k ->
              clamp
                (if k = 0 then 1.0 -. gt k
                 else if k = 2 * bins then gt (k - 1)
                 else gt (k - 1) -. gt k))
        in
        Alcotest.(check bool)
          (Printf.sprintf "bins %d equal the scalar survival" bins)
          true
          (bits a.Lrd_core.Workload.lower = bits lower
          && bits a.Lrd_core.Workload.upper = bits upper))
      (* Doubling chain (refine reuse), a coarser revisit (stride reuse),
         and a non-conforming level (fresh compute): every path of the
         grid-level cache must stay bitwise equal to the plain workload. *)
      [ 16; 32; 64; 16; 48 ];
    List.iter
      (fun bins ->
        let a = Lrd_core.Workload.overflow_table plain ~buffer ~bins in
        let b = Lrd_core.Workload.overflow_table memo ~buffer ~bins in
        Alcotest.(check bool)
          (Printf.sprintf "overflow_table %d identical" bins)
          true (a = b);
        (* And the batch table matches the scalar API entry for entry. *)
        let step = buffer /. float_of_int bins in
        Array.iteri
          (fun j v ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "overflow_table %d entry %d" bins j)
              (Lrd_core.Workload.expected_overflow plain ~buffer
                 ~occupancy:(Float.min buffer (float_of_int j *. step)))
              v)
          a)
      [ 16; 32; 64; 16; 48 ];
    let xs = [| 0.0; 0.1; 0.35; 0.7 |] in
    Array.iter
      (fun occupancy ->
        Alcotest.(check (float 0.0))
          "expected_overflow identical"
          (Lrd_core.Workload.expected_overflow plain ~buffer ~occupancy)
          (Lrd_core.Workload.expected_overflow memo ~buffer ~occupancy))
      xs
  in
  (* At service rate 2.0 one rate sits exactly at the service rate (a
     zero increment); at 1.5 the rates straddle it. *)
  check_at model ~service_rate:1.5 ~buffer:0.7;
  check_at model ~service_rate:2.0 ~buffer:0.7;
  (* Rates 1 below and 0.5 above the service rate with a cutoff of 0.5
     put the law's atom exactly on grid points of both signs (-0.5 and
     0.25 at d = 1/16), where the strict and weak survival differ. *)
  let atom_marginal =
    Lrd_dist.Marginal.of_points [ (0.5, 0.4); (2.0, 0.3); (5.0, 0.3) ]
  in
  check_at
    (Lrd_core.Model.cutoff_pareto ~marginal:atom_marginal ~theta:0.1
       ~alpha:1.4 ~cutoff:0.5)
    ~service_rate:1.5 ~buffer:1.0

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map on empty input" `Quick test_map_empty;
          Alcotest.test_case "map2_grid orientation" `Quick
            test_map2_grid_orientation;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "shutdown" `Quick
            test_shutdown_idempotent_and_final;
        ] );
      ( "rng",
        [ Alcotest.test_case "split_indexed" `Quick test_split_indexed ] );
      ( "arena",
        [
          Alcotest.test_case "memoizes per domain" `Quick
            test_arena_memoizes_per_domain;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "buffers validation" `Quick
            test_buffers_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4 across pool sizes" `Slow
            test_fig4_deterministic_across_pools;
          Alcotest.test_case "fig7 across pool sizes" `Slow
            test_fig7_deterministic_across_pools;
          Alcotest.test_case "fig13 across pool sizes" `Slow
            (experiment_deterministic "fig13" Lrd_experiments.Fig13.run);
          Alcotest.test_case "ext-packet across pool sizes" `Slow
            test_ext_packet_deterministic_across_pools;
          Alcotest.test_case "fig8 across pool sizes" `Slow
            (experiment_deterministic "fig8" Lrd_experiments.Fig08.run);
          Alcotest.test_case "abl-markov across pool sizes" `Slow
            (experiment_deterministic "abl-markov"
               Lrd_experiments.Abl_markov.run);
          Alcotest.test_case "ext-ams across pool sizes" `Slow
            (experiment_deterministic "ext-ams" Lrd_experiments.Ext_ams.run);
          Alcotest.test_case "estimators across domains" `Quick
            test_estimators_deterministic_across_domains;
        ] );
      ( "cache",
        [
          Alcotest.test_case "counters and values" `Quick
            test_cache_counters_and_values;
          Alcotest.test_case "memoized workload identical" `Quick
            test_memoized_workload_identical;
        ] );
    ]
