type estimate = {
  frequencies : float array;
  power : float array;
  segments : int;
}

let periodogram data =
  let n = Array.length data in
  if n < 8 then invalid_arg "Spectral.periodogram: series too short";
  let size = Lrd_numerics.Fft.next_power_of_two n in
  let power = Half_spectrum.power ~size data in
  let norm = 2.0 *. Float.pi *. float_of_int n in
  {
    frequencies =
      Array.init (size / 2) (fun j ->
          2.0 *. Float.pi *. float_of_int (j + 1) /. float_of_int size);
    power = Array.init (size / 2) (fun j -> power.(j + 1) /. norm);
    segments = 1;
  }

let welch ?segment ?(overlap = 0.5) data =
  let n = Array.length data in
  if not (overlap >= 0.0 && overlap < 1.0) then
    invalid_arg "Spectral.welch: overlap must lie in [0, 1)";
  let segment =
    match segment with
    | Some s -> s
    | None -> max 64 (Lrd_numerics.Fft.next_power_of_two (n / 8) / 2 * 2)
  in
  let segment = Lrd_numerics.Fft.next_power_of_two segment in
  if n < segment then invalid_arg "Spectral.welch: series shorter than segment";
  let hop = max 1 (int_of_float (float_of_int segment *. (1.0 -. overlap))) in
  (* Hann window and its power normalization. *)
  let window =
    Array.init segment (fun i ->
        0.5
        *. (1.0
           -. cos (2.0 *. Float.pi *. float_of_int i /. float_of_int segment)))
  in
  let window_power =
    Lrd_numerics.Array_ops.sum (Array.map (fun w -> w *. w) window)
    /. float_of_int segment
  in
  let mean = Lrd_numerics.Array_ops.mean data in
  let half = segment / 2 in
  let accum = Array.make half 0.0 in
  let plan = Lrd_numerics.Fft.Real.cached_plan segment in
  let windowed = Array.make segment 0.0 in
  let re = Array.make (half + 1) 0.0 and im = Array.make (half + 1) 0.0 in
  let segments = ref 0 in
  let start = ref 0 in
  while !start + segment <= n do
    for i = 0 to segment - 1 do
      windowed.(i) <- (data.(!start + i) -. mean) *. window.(i)
    done;
    Lrd_numerics.Fft.Real.forward_ip plan ~signal:windowed ~len:segment
      ~spec_re:re ~spec_im:im;
    for j = 0 to half - 1 do
      let k = j + 1 in
      accum.(j) <-
        accum.(j) +. ((re.(k) *. re.(k)) +. (im.(k) *. im.(k)))
    done;
    incr segments;
    start := !start + hop
  done;
  let norm =
    2.0 *. Float.pi *. float_of_int segment *. window_power
    *. float_of_int !segments
  in
  {
    frequencies =
      Array.init half (fun j ->
          2.0 *. Float.pi *. float_of_int (j + 1) /. float_of_int segment);
    power = Array.map (fun p -> p /. norm) accum;
    segments = !segments;
  }

(* Paxson's approximation: the fGn spectrum is
   c_H (|w|^(-2H-1) aliased over 2 pi k shifts); three explicit terms
   plus an integral tail correction. *)
let fgn_spectrum ~hurst w =
  if not (hurst > 0.0 && hurst < 1.0) then
    invalid_arg "Spectral.fgn_spectrum: hurst must lie in (0, 1)";
  if not (w > 0.0 && w <= Float.pi) then
    invalid_arg "Spectral.fgn_spectrum: frequency must lie in (0, pi]";
  let h2 = (2.0 *. hurst) +. 1.0 in
  let c =
    (* Normalization for unit variance:
       c_H = sin(pi H) Gamma(2H + 1) / (2 pi) ... folded below; the
       estimator comparisons only need proportionality, but the exact
       constant makes the tests sharper. *)
    sin (Float.pi *. hurst)
    *. exp (Lrd_numerics.Special.log_gamma ((2.0 *. hurst) +. 1.0))
    /. (2.0 *. Float.pi)
  in
  let b k =
    let t = (2.0 *. Float.pi *. float_of_int k) +. w in
    Float.abs t ** -.h2
  and b' k =
    let t = (2.0 *. Float.pi *. float_of_int k) -. w in
    Float.abs t ** -.h2
  in
  let direct = (b 0) +. (b 1) +. (b 2) +. (b' 1) +. (b' 2) in
  (* Tail: sum_{k>=3} ~ integral correction (Paxson). *)
  let tail =
    let a3 = (2.0 *. Float.pi *. 3.0) +. w
    and a3' = (2.0 *. Float.pi *. 3.0) -. w in
    ((a3 ** (1.0 -. h2)) +. (a3' ** (1.0 -. h2)))
    /. (8.0 *. hurst *. Float.pi)
  in
  let shape = 2.0 *. (1.0 -. cos w) in
  c *. shape *. (direct +. tail)

let farima_spectrum ~d w =
  if not (d >= 0.0 && d < 0.5) then
    invalid_arg "Spectral.farima_spectrum: d must lie in [0, 0.5)";
  if not (w > 0.0 && w <= Float.pi) then
    invalid_arg "Spectral.farima_spectrum: frequency must lie in (0, pi]";
  ((2.0 *. sin (w /. 2.0)) ** (-2.0 *. d)) /. (2.0 *. Float.pi)
