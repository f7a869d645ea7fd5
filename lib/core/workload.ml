(* A cached level of the batch builders behind {!discretize} and
   {!overflow_table}: value tables on the grid of [m] bins for one
   buffer, indexed so that point [k] of a coarser level [m / r] sits at
   index [r k] (the step is an exact power-of-two scaling).  The finest
   level computed so far answers any coarser level by striding and
   seeds every [r]-th point of a refinement.  Tables are immutable once
   installed. *)
type level = {
  buffer : float;
  m : int;  (* 0 = empty *)
  tables : float array array;
}

let empty_level = { buffer = nan; m = 0; tables = [||] }

(* Memo state for the survival-function evaluations that dominate
   discretization cost.  Two layers: scalar hashtables keyed by the raw
   evaluation points (for the point-wise API), and whole-level caches
   for the batch builders — a refinement level at [2 m] bins reuses
   every evaluation its [m]-bin parent already made, without a
   mutex/hashtable round trip per point.  A mutex guards the state
   because a cached workload may be evaluated from several domains at
   once; the batch builders only hold it to read or install a level,
   never while computing one. *)
type memo = {
  lock : Mutex.t;
  ge : (float, float) Hashtbl.t;
  gt : (float, float) Hashtbl.t;
  integral : (float, float) Hashtbl.t;
  mutable grid : level;  (* [| Pr{W >= x}; Pr{W > x} |], length 2 m + 1 *)
  mutable ov : level;  (* [| overflow |], length m + 1 *)
}

type t = {
  service_rate : float;
  rates : float array;
  probs : float array;
  law : Lrd_dist.Interarrival.t;
  mean_rate : float;
  memo : memo option;
}

let create ?(memoize = false) model ~service_rate =
  if not (service_rate > 0.0) then
    invalid_arg "Workload.create: service rate must be positive";
  {
    service_rate;
    rates = Lrd_dist.Marginal.rates model.Model.marginal;
    probs = Lrd_dist.Marginal.probs model.Model.marginal;
    law = model.Model.interarrival;
    mean_rate = Model.mean_rate model;
    memo =
      (if memoize then
         Some
           {
             lock = Mutex.create ();
             ge = Hashtbl.create 512;
             gt = Hashtbl.create 512;
             integral = Hashtbl.create 512;
             grid = empty_level;
             ov = empty_level;
           }
       else None);
  }

(* Computing under the table lock is deliberate: one evaluation is a
   single pass over the marginal, and holding the lock keeps two domains
   racing on the same point from both doing the work. *)
let memo_find lock tbl x compute =
  Mutex.lock lock;
  match Hashtbl.find_opt tbl x with
  | Some v ->
      Mutex.unlock lock;
      v
  | None -> (
      match compute x with
      | v ->
          Hashtbl.add tbl x v;
          Mutex.unlock lock;
          v
      | exception e ->
          Mutex.unlock lock;
          raise e)

let mean t =
  t.law.Lrd_dist.Interarrival.mean *. (t.mean_rate -. t.service_rate)

(* Pr{W >= x} and Pr{W > x} by conditioning on the rate.  For a rate
   above the service rate the increment is positive and increasing in T;
   below, it is negative and decreasing in T, so the strict/weak
   survival functions of T swap roles; a rate exactly equal to c pins
   the increment at zero. *)
let survival ~weak t x =
  let acc = Lrd_numerics.Summation.create () in
  let s_gt = t.law.Lrd_dist.Interarrival.survival_gt
  and s_ge = t.law.Lrd_dist.Interarrival.survival_ge in
  Array.iteri
    (fun i p ->
      let delta = t.rates.(i) -. t.service_rate in
      let term =
        if delta > 0.0 then
          if weak then s_ge (x /. delta) else s_gt (x /. delta)
        else if delta < 0.0 then
          (* W = T delta <= 0: Pr{W >= x} = Pr{T <= x / delta}. *)
          if weak then 1.0 -. s_gt (x /. delta)
          else 1.0 -. s_ge (x /. delta)
        else if weak then (if x <= 0.0 then 1.0 else 0.0)
        else if x < 0.0 then 1.0
        else 0.0
      in
      Lrd_numerics.Summation.add acc (p *. term))
    t.probs;
  Float.max 0.0 (Float.min 1.0 (Lrd_numerics.Summation.total acc))

let survival_ge t x =
  match t.memo with
  | None -> survival ~weak:true t x
  | Some m -> memo_find m.lock m.ge x (survival ~weak:true t)

let survival_gt t x =
  match t.memo with
  | None -> survival ~weak:false t x
  | Some m -> memo_find m.lock m.gt x (survival ~weak:false t)

let m_grid_fresh = Lrd_obs.Obs.Counter.make "workload_grid/points_fresh"
let m_grid_reused = Lrd_obs.Obs.Counter.make "workload_grid/points_reused"
let is_pow2 r = r > 0 && r land (r - 1) = 0

(* A level that refines a cached one by [r] computes only the points
   off every [r]-th index (all of them when [r = 1]); [fresh_index] is
   the grid index of the [i]-th. *)
let fresh_count ~len ~r = if r = 1 then len else len - ((len - 1) / r) - 1

let[@inline] fresh_index ~r i =
  if r = 1 then i else ((i / (r - 1)) * r) + (i mod (r - 1)) + 1

(* The rate-major builders take their fresh points in chunks of this
   size, so each rate's batch call and accumulation sweep cache-resident
   scratch rather than whole-level arrays. *)
let chunk = 512

(* Runs [pass size] over the fresh points [0, n) chunk by chunk: [pass]
   allocates its scratch for one chunk size and returns the function
   that processes the chunk starting at a given point. *)
let in_chunks n pass =
  let full = n / chunk and tail = n mod chunk in
  if full > 0 then begin
    let run = pass chunk in
    for b = 0 to full - 1 do
      run (b * chunk)
    done
  end;
  if tail > 0 then pass tail (full * chunk)

(* The level cache shared by the survival grid and the overflow table.
   [get]/[set] select the level in the memo; [pass ~r tables] computes
   fresh points of [count] tables of length [len] whose every [r]-th
   point is already set, chunk by chunk (see {!in_chunks}).  The lock
   is held only to snapshot the cached level and to install a new one:
   the fresh points are computed outside it, so cells of one sweep
   column, which share one workload, build their levels side by side.
   Two domains racing on the same level may both compute it; the values
   are identical and the last install wins.  Returned tables may be
   cache-owned: callers only read them. *)
let level_tables t ~get ~set ~buffer ~m ~count ~len ~pass =
  let snapshot =
    match t.memo with
    | None -> empty_level
    | Some memo ->
        Mutex.lock memo.lock;
        let level = get memo in
        Mutex.unlock memo.lock;
        level
  in
  let cm = snapshot.m in
  let same_buffer = cm > 0 && snapshot.buffer = buffer in
  if same_buffer && cm = m then (
    Lrd_obs.Obs.Counter.add m_grid_reused len;
    snapshot.tables)
  else if same_buffer && cm mod m = 0 && is_pow2 (cm / m) then (
    (* The cached finer level contains this one as a stride. *)
    let r = cm / m in
    Lrd_obs.Obs.Counter.add m_grid_reused len;
    Array.map
      (fun tab ->
        let a = Array.make len 0.0 in
        for k = 0 to len - 1 do
          a.(k) <- tab.(r * k)
        done;
        a)
      snapshot.tables)
  else begin
    (* Refining a cached coarser level: its points land on every [r]-th
       index bitwise, and only the others are fresh. *)
    let r =
      if same_buffer && m mod cm = 0 && is_pow2 (m / cm) then m / cm else 1
    in
    let tables = Array.init count (fun _ -> Array.make len 0.0) in
    if r > 1 then
      Array.iteri
        (fun tab coarse ->
          for k = 0 to Array.length coarse - 1 do
            tables.(tab).(r * k) <- coarse.(k)
          done)
        snapshot.tables;
    let fresh = fresh_count ~len ~r in
    in_chunks fresh (pass ~r tables);
    match t.memo with
    | None -> tables
    | Some memo ->
        Lrd_obs.Obs.Counter.add m_grid_fresh fresh;
        Lrd_obs.Obs.Counter.add m_grid_reused (len - fresh);
        Mutex.lock memo.lock;
        set memo { buffer; m; tables };
        Mutex.unlock memo.lock;
        tables
  end

(* One step of [Summation.add] on slot [k] of unboxed sum and
   compensation arrays: the per-point accumulators of the rate-major
   builders, with no boxed float per term. *)
let[@inline] neumaier_add sums comps k x =
  let s = sums.(k) in
  let t' = s +. x in
  if Float.abs s >= Float.abs x then comps.(k) <- comps.(k) +. (s -. t' +. x)
  else comps.(k) <- comps.(k) +. (x -. t' +. s);
  sums.(k) <- t'

(* One chunk size's pass over fresh points of the survival grid of
   {!survival_grid}: [Pr{W >= x}] and [Pr{W > x}] at [x = (k - m) d],
   rate-major — one batch law call per rate, then a Neumaier step per
   point into unboxed accumulators.  Rates are visited in the order of
   {!survival} and each point receives the same terms, so every value
   is bitwise the scalar [survival_ge] / [survival_gt] one. *)
let survival_pass t ~m ~d ~r ~ge ~gt size =
  let x = Array.make size 0.0 and q = Array.make size 0.0 in
  let law_ge = Array.make size 0.0 and law_gt = Array.make size 0.0 in
  let sum_ge = Array.make size 0.0 and comp_ge = Array.make size 0.0 in
  let sum_gt = Array.make size 0.0 and comp_gt = Array.make size 0.0 in
  fun first ->
    for j = 0 to size - 1 do
      x.(j) <- float_of_int (fresh_index ~r (first + j) - m) *. d;
      sum_ge.(j) <- 0.0;
      comp_ge.(j) <- 0.0;
      sum_gt.(j) <- 0.0;
      comp_gt.(j) <- 0.0
    done;
    for i = 0 to Array.length t.probs - 1 do
      let p = t.probs.(i) in
      let delta = t.rates.(i) -. t.service_rate in
      if delta > 0.0 || delta < 0.0 then begin
        for j = 0 to size - 1 do
          q.(j) <- x.(j) /. delta
        done;
        t.law.Lrd_dist.Interarrival.survival_pair q ~ge:law_ge ~gt:law_gt
      end;
      if delta > 0.0 then
        for j = 0 to size - 1 do
          neumaier_add sum_ge comp_ge j (p *. law_ge.(j));
          neumaier_add sum_gt comp_gt j (p *. law_gt.(j))
        done
      else if delta < 0.0 then
        (* W = T delta <= 0: Pr{W >= x} = Pr{T <= x / delta}. *)
        for j = 0 to size - 1 do
          neumaier_add sum_ge comp_ge j (p *. (1.0 -. law_gt.(j)));
          neumaier_add sum_gt comp_gt j (p *. (1.0 -. law_ge.(j)))
        done
      else
        for j = 0 to size - 1 do
          let x = x.(j) in
          neumaier_add sum_ge comp_ge j (p *. if x <= 0.0 then 1.0 else 0.0);
          neumaier_add sum_gt comp_gt j (p *. if x < 0.0 then 1.0 else 0.0)
        done
    done;
    for j = 0 to size - 1 do
      let k = fresh_index ~r (first + j) in
      ge.(k) <- Float.max 0.0 (Float.min 1.0 (sum_ge.(j) +. comp_ge.(j)));
      gt.(k) <- Float.max 0.0 (Float.min 1.0 (sum_gt.(j) +. comp_gt.(j)))
    done

(* Survival grids [Pr{W >= i d}], [Pr{W > i d}] for [i = -m .. m] with
   [d = buffer / m], the construction-time bulk of {!discretize}, through
   the level cache: a refinement chain pays for each point once. *)
let survival_grid t ~buffer ~m =
  let d = buffer /. float_of_int m and len = (2 * m) + 1 in
  let tables =
    level_tables t
      ~get:(fun memo -> memo.grid)
      ~set:(fun memo level -> memo.grid <- level)
      ~buffer ~m ~count:2 ~len
      ~pass:(fun ~r tables ->
        survival_pass t ~m ~d ~r ~ge:tables.(0) ~gt:tables.(1))
  in
  (tables.(0), tables.(1))

(* The interarrival law's integrated survival function, memoized like the
   survival functions (the inner loop of {!expected_overflow}). *)
let law_integral t x =
  match t.memo with
  | None -> t.law.Lrd_dist.Interarrival.survival_integral x
  | Some m ->
      memo_find m.lock m.integral x t.law.Lrd_dist.Interarrival.survival_integral

let max_increment t =
  let max_delta =
    Array.fold_left
      (fun acc r -> Float.max acc (r -. t.service_rate))
      neg_infinity t.rates
  in
  if max_delta <= 0.0 then 0.0
  else
    match t.law.Lrd_dist.Interarrival.max_support with
    | None -> Float.infinity
    | Some sup -> sup *. max_delta

let expected_overflow t ~buffer ~occupancy =
  if not (buffer >= 0.0) then
    invalid_arg "Workload.expected_overflow: negative buffer";
  if not (occupancy >= 0.0 && occupancy <= buffer +. 1e-9) then
    invalid_arg "Workload.expected_overflow: occupancy outside [0, buffer]";
  let headroom = Float.max 0.0 (buffer -. occupancy) in
  (* E[(T delta - headroom)^+] = delta int_{headroom/delta}^inf Pr{T>t} dt. *)
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p ->
      let delta = t.rates.(i) -. t.service_rate in
      if delta > 0.0 then
        Lrd_numerics.Summation.add acc
          (p *. delta *. law_integral t (headroom /. delta)))
    t.probs;
  Lrd_numerics.Summation.total acc

(* One chunk size's pass over fresh points of {!overflow_table}:
   {!expected_overflow} at the occupancies [min buffer (j step)],
   rate-major like {!survival_pass} — one batch integrated-survival call
   per rate above the service rate, the scalar terms in the scalar
   order, so every value is bitwise the scalar one. *)
let overflow_pass t ~buffer ~step ~r ~table size =
  let headroom = Array.make size 0.0 and q = Array.make size 0.0 in
  let integral = Array.make size 0.0 in
  let sum = Array.make size 0.0 and comp = Array.make size 0.0 in
  fun first ->
    for j = 0 to size - 1 do
      let point = float_of_int (fresh_index ~r (first + j)) *. step in
      let occupancy = Float.min buffer point in
      headroom.(j) <- Float.max 0.0 (buffer -. occupancy);
      sum.(j) <- 0.0;
      comp.(j) <- 0.0
    done;
    for i = 0 to Array.length t.probs - 1 do
      let p = t.probs.(i) in
      let delta = t.rates.(i) -. t.service_rate in
      if delta > 0.0 then begin
        (* E[(T delta - h)^+] = delta int_{h/delta}^inf Pr{T>t} dt. *)
        for j = 0 to size - 1 do
          q.(j) <- headroom.(j) /. delta
        done;
        t.law.Lrd_dist.Interarrival.survival_integrals q ~dst:integral;
        let weight = p *. delta in
        for j = 0 to size - 1 do
          neumaier_add sum comp j (weight *. integral.(j))
        done
      end
    done;
    for j = 0 to size - 1 do
      table.(fresh_index ~r (first + j)) <- sum.(j) +. comp.(j)
    done

let overflow_table t ~buffer ~bins =
  if not (buffer > 0.0) then
    invalid_arg "Workload.overflow_table: buffer must be positive";
  if bins <= 0 then
    invalid_arg "Workload.overflow_table: bins must be positive";
  let step = buffer /. float_of_int bins and len = bins + 1 in
  let tables =
    level_tables t
      ~get:(fun memo -> memo.ov)
      ~set:(fun memo level -> memo.ov <- level)
      ~buffer ~m:bins ~count:1 ~len
      ~pass:(fun ~r tables ->
        overflow_pass t ~buffer ~step ~r ~table:tables.(0))
  in
  Array.copy tables.(0)

let loss_rate_of_occupancy t ~buffer ~occupancy_probs =
  let n = Array.length occupancy_probs in
  if n < 1 then invalid_arg "Workload.loss_rate_of_occupancy: empty pmf";
  let step = if n = 1 then 0.0 else buffer /. float_of_int (n - 1) in
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i q ->
      if q > 0.0 then
        Lrd_numerics.Summation.add acc
          (q
          *. expected_overflow t ~buffer ~occupancy:(float_of_int i *. step)))
    occupancy_probs;
  Lrd_numerics.Summation.total acc
  /. (t.mean_rate *. t.law.Lrd_dist.Interarrival.mean)

let zero_buffer_loss t =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p ->
      let delta = t.rates.(i) -. t.service_rate in
      if delta > 0.0 then Lrd_numerics.Summation.add acc (p *. delta))
    t.probs;
  Lrd_numerics.Summation.total acc /. t.mean_rate

type bins = {
  lower : float array;
  upper : float array;
  half_width : int;
  step : float;
}

let discretize t ~buffer ~bins =
  if not (buffer > 0.0) then
    invalid_arg "Workload.discretize: buffer must be positive";
  if bins <= 0 then invalid_arg "Workload.discretize: bins must be positive";
  let m = bins in
  let d = buffer /. float_of_int m in
  let lower = Array.make ((2 * m) + 1) 0.0 in
  let upper = Array.make ((2 * m) + 1) 0.0 in
  (* Precompute the survival functions on the grid once (one fused batch
     pass, level-cached; see {!survival_grid}); each bin mass is a
     difference of adjacent values (eqs. 21-22). *)
  let ge, gt = survival_grid t ~buffer ~m in
  for k = 0 to 2 * m do
    let i = k - m in
    (* Floor chain, eq. 21. *)
    lower.(k) <-
      (if i = -m then 1.0 -. ge.(k + 1)
       else if i = m then ge.(k)
       else ge.(k) -. ge.(k + 1));
    (* Ceiling chain, eq. 22. *)
    upper.(k) <-
      (if i = -m then 1.0 -. gt.(k)
       else if i = m then gt.(k - 1)
       else gt.(k - 1) -. gt.(k))
  done;
  (* Guard against rounding producing tiny negatives. *)
  for k = 0 to 2 * m do
    if lower.(k) < 0.0 then lower.(k) <- 0.0;
    if upper.(k) < 0.0 then upper.(k) <- 0.0
  done;
  { lower; upper; half_width = m; step = d }

(* ------------------------------------------------------------------ *)
(* Cross-cell cache.

   A sweep surface re-derives the same model and workload for every cell
   of a column that varies only the buffer size (fig. 4/5: one model per
   cutoff across seven buffers; fig. 12/13: one scaled marginal per
   scaling factor).  The cache shares one memoizing workload per
   caller-supplied key — so all those cells also share ONE set of
   survival memo tables — and counts lookups/hits so tests can assert
   the sharing actually happens.  Models and interarrival laws contain
   closures, so identity must come from the caller: the key must be
   injective over the models the sweep builds (e.g. the hex-printed
   column coordinate). *)

let make_workload = create

module Cache = struct
  type workload = t

  (* Cache traffic also feeds the telemetry layer: the counters
     aggregate over every cache instance, while the hit-rate gauge
     reflects the instance that looked up last (one cache per figure
     sweep, so "the active sweep's hit rate"). *)
  let m_lookups = Lrd_obs.Obs.Counter.make "workload_cache/lookups"
  let m_hits = Lrd_obs.Obs.Counter.make "workload_cache/hits"
  let m_misses = Lrd_obs.Obs.Counter.make "workload_cache/misses"
  let m_hit_rate = Lrd_obs.Obs.Gauge.make "workload_cache/hit_rate"

  type t = {
    lock : Mutex.t;
    models : (string, Model.t) Hashtbl.t;
    workloads : (string * float, workload) Hashtbl.t;
    mutable lookups : int;
    mutable hits : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      models = Hashtbl.create 32;
      workloads = Hashtbl.create 32;
      lookups = 0;
      hits = 0;
    }

  (* Building under the cache lock serializes construction of distinct
     keys, which is fine: construction is a tiny fraction of the solve
     it precedes, and the alternative is duplicated work on a race. *)
  let find_or_build c tbl key build =
    Mutex.lock c.lock;
    c.lookups <- c.lookups + 1;
    Lrd_obs.Obs.Counter.incr m_lookups;
    let update_hit_rate () =
      if Lrd_obs.Obs.enabled () then
        Lrd_obs.Obs.Gauge.set m_hit_rate
          (float_of_int c.hits /. float_of_int c.lookups)
    in
    match Hashtbl.find_opt tbl key with
    | Some v ->
        c.hits <- c.hits + 1;
        Lrd_obs.Obs.Counter.incr m_hits;
        update_hit_rate ();
        Mutex.unlock c.lock;
        v
    | None -> (
        Lrd_obs.Obs.Counter.incr m_misses;
        update_hit_rate ();
        match build () with
        | v ->
            Hashtbl.add tbl key v;
            Mutex.unlock c.lock;
            v
        | exception e ->
            Mutex.unlock c.lock;
            raise e)

  let model c ~key build = find_or_build c c.models key build

  let workload c ~key m ~service_rate =
    find_or_build c c.workloads (key, service_rate) (fun () ->
        make_workload ~memoize:true m ~service_rate)

  let lookups c =
    Mutex.lock c.lock;
    let v = c.lookups in
    Mutex.unlock c.lock;
    v

  let hits c =
    Mutex.lock c.lock;
    let v = c.hits in
    Mutex.unlock c.lock;
    v

  let entries c =
    Mutex.lock c.lock;
    let v = Hashtbl.length c.models + Hashtbl.length c.workloads in
    Mutex.unlock c.lock;
    v
end
