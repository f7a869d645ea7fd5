let power ~size a =
  let mean = Lrd_numerics.Array_ops.mean a in
  let centered = Array.map (fun x -> x -. mean) a in
  let plan = Lrd_numerics.Fft.Real.cached_plan size in
  let bins = Lrd_numerics.Fft.Real.spectrum_length plan in
  let re = Array.make bins 0.0 and im = Array.make bins 0.0 in
  Lrd_numerics.Fft.Real.forward_ip plan ~signal:centered
    ~len:(Array.length a) ~spec_re:re ~spec_im:im;
  for k = 0 to bins - 1 do
    re.(k) <- (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
  done;
  re
