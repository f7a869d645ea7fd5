type t = {
  sources : int;
  on_rate : float;
  lambda : float;
  mu : float;
  service_rate : float;
}

let mean_rate t =
  float_of_int t.sources *. t.on_rate *. t.lambda /. (t.lambda +. t.mu)

let utilization t = mean_rate t /. t.service_rate

let drift t j = (float_of_int j *. t.on_rate) -. t.service_rate

let create ~sources ~on_rate ~lambda ~mu ~service_rate =
  if sources < 1 then invalid_arg "Ams.create: need at least one source";
  if not (on_rate > 0.0 && lambda > 0.0 && mu > 0.0 && service_rate > 0.0)
  then invalid_arg "Ams.create: parameters must be positive";
  let t = { sources; on_rate; lambda; mu; service_rate } in
  if not (mean_rate t < service_rate) then
    invalid_arg "Ams.create: unstable system (mean rate >= service rate)";
  if not (float_of_int sources *. on_rate > service_rate) then
    invalid_arg
      "Ams.create: peak rate below service rate (queue always empty)";
  for j = 0 to sources do
    if drift t j = 0.0 then
      invalid_arg "Ams.create: a state has exactly zero drift"
  done;
  t

let stationary t =
  let n = t.sources in
  let p = t.lambda /. (t.lambda +. t.mu) in
  let log_choose n k =
    Lrd_numerics.Special.log_gamma (float_of_int (n + 1))
    -. Lrd_numerics.Special.log_gamma (float_of_int (k + 1))
    -. Lrd_numerics.Special.log_gamma (float_of_int (n - k + 1))
  in
  Array.init (n + 1) (fun j ->
      exp
        (log_choose n j
        +. (float_of_int j *. log p)
        +. (float_of_int (n - j) *. log (1.0 -. p))))

(* Entries of T(z) = M^T - z D, tridiagonal over j = 0..N:
   diagonal  a_j(z) = -((N-j) lambda + j mu) - z d_j
   sub       b_j    = (N-j+1) lambda   (row j, column j-1)
   super     c_j    = (j+1) mu         (row j, column j+1). *)
let diag t z j =
  -.((float_of_int (t.sources - j) *. t.lambda) +. (float_of_int j *. t.mu))
  -. (z *. drift t j)

let sub t j = float_of_int (t.sources - j + 1) *. t.lambda
let super t j = float_of_int (j + 1) *. t.mu

(* Sign of det T(z) via the three-term recurrence with rescaling (the
   raw determinant overflows for moderate N). *)
let det_sign t z =
  let n = t.sources in
  let prev2 = ref 1.0 and prev1 = ref (diag t z 0) in
  for j = 1 to n do
    let v = (diag t z j *. !prev1) -. (sub t j *. super t (j - 1) *. !prev2) in
    prev2 := !prev1;
    prev1 := v;
    let m = Float.max (Float.abs !prev1) (Float.abs !prev2) in
    if m > 1e150 then begin
      prev1 := !prev1 /. m;
      prev2 := !prev2 /. m
    end
    else if m > 0.0 && m < 1e-150 then begin
      prev1 := !prev1 /. m;
      prev2 := !prev2 /. m
    end
  done;
  !prev1

(* Gershgorin bound for the pencil eigenvalues (rows of D^-1 M^T). *)
let spectral_radius t =
  let n = t.sources in
  let worst = ref 0.0 in
  for j = 0 to n do
    let off =
      (if j > 0 then Float.abs (sub t j) else 0.0)
      +. if j < n then Float.abs (super t j) else 0.0
    in
    let r = (Float.abs (diag t 0.0 j) +. off) /. Float.abs (drift t j) in
    if r > !worst then worst := r
  done;
  !worst *. 1.01

(* Sign-change scan over [lo, hi] refined until [wanted] roots appear. *)
let eigenvalues_in t ~lo ~hi ~wanted ~context =
  let find_roots points =
    let xs = Lrd_numerics.Array_ops.linspace lo hi points in
    let roots = ref [] in
    let prev = ref (det_sign t xs.(0)) in
    for i = 1 to points - 1 do
      let v = det_sign t xs.(i) in
      if (!prev < 0.0 && v > 0.0) || (!prev > 0.0 && v < 0.0) then
        roots :=
          Lrd_numerics.Roots.bisection ~f:(det_sign t) ~lo:xs.(i - 1)
            ~hi:xs.(i) ~eps:1e-13 ()
          :: !roots
      else if v = 0.0 then roots := xs.(i) :: !roots;
      prev := v
    done;
    List.sort_uniq Float.compare !roots
  in
  let rec search points =
    let roots = find_roots points in
    if List.length roots >= wanted || points > 400_000 then roots
    else search (points * 4)
  in
  let roots = search (64 * (t.sources + 1)) in
  if List.length roots <> wanted then
    failwith
      (Printf.sprintf "Ams.%s: found %d of %d expected eigenvalues" context
         (List.length roots) wanted);
  Array.of_list roots

let count_states t predicate =
  let count = ref 0 in
  for j = 0 to t.sources do
    if predicate (drift t j) then incr count
  done;
  !count

let negative_eigenvalues t =
  let radius = spectral_radius t in
  eigenvalues_in t ~lo:(-.radius) ~hi:(-.(radius *. 1e-12))
    ~wanted:(count_states t (fun d -> d > 0.0))
    ~context:"negative_eigenvalues"

let positive_eigenvalues t =
  let radius = spectral_radius t in
  (* All but one of the down-drift states contribute a positive
     eigenvalue (the remaining one is z = 0). *)
  let wanted = count_states t (fun d -> d < 0.0) - 1 in
  if wanted = 0 then [||]
  else
    eigenvalues_in t ~lo:(radius *. 1e-12) ~hi:radius ~wanted
      ~context:"positive_eigenvalues"

let all_eigenvalues t =
  Array.concat [ negative_eigenvalues t; [| 0.0 |]; positive_eigenvalues t ]

(* Eigenvector of T(z) phi = 0 by the forward tridiagonal recurrence. *)
let eigenvector t z =
  let n = t.sources in
  let phi = Array.make (n + 1) 0.0 in
  phi.(0) <- 1.0;
  if n >= 1 then phi.(1) <- -.(diag t z 0) /. super t 0;
  for j = 1 to n - 1 do
    phi.(j + 1) <-
      -.((sub t j *. phi.(j - 1)) +. (diag t z j *. phi.(j))) /. super t j
  done;
  (* Normalize to unit max magnitude for conditioning. *)
  let m = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 phi in
  Array.map (fun v -> v /. m) phi

let spectral_solution t =
  let n = t.sources in
  let pi = stationary t in
  let zs = negative_eigenvalues t in
  let phis = Array.map (eigenvector t) zs in
  (* Boundary conditions: F_j(0) = pi_j + sum_k a_k phi_kj = 0 at every
     positive-drift state j. *)
  let up_states =
    List.filter (fun j -> drift t j > 0.0) (List.init (n + 1) Fun.id)
  in
  let k = Array.length zs in
  let matrix =
    Array.of_list
      (List.map (fun j -> Array.init k (fun i -> phis.(i).(j))) up_states)
  in
  let rhs = Array.of_list (List.map (fun j -> -.pi.(j)) up_states) in
  let coefficients = Lrd_numerics.Linalg.solve matrix rhs in
  (zs, phis, coefficients)

let overflow_probability t ~level =
  let zs, phis, coefficients = spectral_solution t in
  if level < 0.0 then 1.0
  else begin
    (* P(Q > x) = - sum_k a_k e^(z_k x) sum_j phi_kj. *)
    let acc = Lrd_numerics.Summation.create () in
    Array.iteri
      (fun k z ->
        let mass = Lrd_numerics.Summation.kahan phis.(k) in
        Lrd_numerics.Summation.add acc
          (-.(coefficients.(k) *. exp (z *. level) *. mass)))
      zs;
    Float.max 0.0 (Float.min 1.0 (Lrd_numerics.Summation.total acc))
  end

let finite_buffer_loss t ~buffer =
  if not (buffer > 0.0) then
    invalid_arg "Ams.finite_buffer_loss: buffer must be positive";
  let n = t.sources in
  let pi = stationary t in
  let zs = all_eigenvalues t in
  let k = Array.length zs in
  let phis =
    Array.map
      (fun z -> if z = 0.0 then Array.copy pi else eigenvector t z)
      zs
  in
  (* Conditioned mode shapes: g_k(x) = e^(z x) for z <= 0 and
     e^(z (x - B)) for z > 0, so no exponential ever exceeds 1 on
     [0, B]. *)
  let g z x = if z <= 0.0 then exp (z *. x) else exp (z *. (x -. buffer)) in
  (* Boundary conditions: rows for F_j(0) = 0 at up states and
     F_j(B) = pi_j at down states. *)
  let rows = ref [] and rhs = ref [] in
  for j = 0 to n do
    if drift t j > 0.0 then begin
      rows := Array.init k (fun i -> g zs.(i) 0.0 *. phis.(i).(j)) :: !rows;
      rhs := 0.0 :: !rhs
    end
    else begin
      rows := Array.init k (fun i -> g zs.(i) buffer *. phis.(i).(j)) :: !rows;
      rhs := pi.(j) :: !rhs
    end
  done;
  let matrix = Array.of_list (List.rev !rows) in
  let rhs = Array.of_list (List.rev !rhs) in
  let a = Lrd_numerics.Linalg.solve matrix rhs in
  (* Loss work rate: sum over up states of d_j (pi_j - F_j(B)). *)
  let acc = Lrd_numerics.Summation.create () in
  for j = 0 to n do
    let d = drift t j in
    if d > 0.0 then begin
      let fjb = ref 0.0 in
      Array.iteri
        (fun i z -> fjb := !fjb +. (a.(i) *. g z buffer *. phis.(i).(j)))
        zs;
      Lrd_numerics.Summation.add acc (d *. Float.max 0.0 (pi.(j) -. !fjb))
    end
  done;
  Float.max 0.0
    (Float.min 1.0 (Lrd_numerics.Summation.total acc /. mean_rate t))

let sample_epochs t rng ~n =
  if n <= 0 then invalid_arg "Ams.sample_epochs: n must be positive";
  let pi = stationary t in
  let table = Lrd_rng.Sampler.discrete_of_weights pi in
  let state = ref (Lrd_rng.Sampler.discrete_draw rng table) in
  let rates = Array.make n 0.0 and durations = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let j = !state in
    let birth = float_of_int (t.sources - j) *. t.lambda in
    let death = float_of_int j *. t.mu in
    let total = birth +. death in
    durations.(i) <- Lrd_rng.Sampler.exponential rng ~rate:total;
    rates.(i) <- float_of_int j *. t.on_rate;
    (* Jump up with probability birth/total. *)
    state := (if Lrd_rng.Rng.float rng < birth /. total then j + 1 else j - 1)
  done;
  (rates, durations)
