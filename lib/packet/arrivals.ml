let check_size packet_size =
  if not (packet_size > 0.0) then
    invalid_arg "Arrivals: packet_size must be positive"

let poisson rng mean =
  if mean > 500.0 then
    max 0
      (int_of_float
         (Float.round (Lrd_rng.Sampler.normal rng ~mean ~std:(sqrt mean))))
  else begin
    (* Knuth's product of uniforms, as a loop so the running product
       stays an unboxed local. *)
    let limit = exp (-.mean) in
    let k = ref 0 and p = ref (Lrd_rng.Rng.float_pos rng) in
    while !p > limit do
      incr k;
      p := !p *. Lrd_rng.Rng.float_pos rng
    done;
    !k
  end

(* The slot scratch grows by doubling to the largest slot seen, so it
   stays O(max packets per slot) and stops allocating once warm. *)
let ensure scratch n =
  if Array.length !scratch < n then
    scratch := Array.make (max n (2 * Array.length !scratch)) 0.0

let poissonize rng trace ~packet_size f =
  check_size packet_size;
  let slot = trace.Lrd_trace.Trace.slot in
  let rates = trace.Lrd_trace.Trace.rates in
  let scratch = ref (Array.make 64 0.0) in
  for i = 0 to Array.length rates - 1 do
    let mean = rates.(i) *. slot /. packet_size in
    let n = if mean > 0.0 then poisson rng mean else 0 in
    if n > 0 then begin
      ensure scratch (n + 1);
      let times = !scratch in
      (* Sorted uniforms without a sort: the partial sums of n + 1
         i.i.d. exponentials, divided by their total, are distributed
         as the order statistics of n uniforms on [0, 1). *)
      let total = ref 0.0 in
      for k = 0 to n do
        total := !total -. log (Lrd_rng.Rng.float_pos rng);
        times.(k) <- !total
      done;
      let t0 = float_of_int i *. slot and scale = slot /. !total in
      for k = 0 to n - 1 do
        times.(k) <- t0 +. (times.(k) *. scale)
      done;
      f times n
    end
  done

let paced trace ~packet_size f =
  check_size packet_size;
  let slot = trace.Lrd_trace.Trace.slot in
  let rates = trace.Lrd_trace.Trace.rates in
  let scratch = ref (Array.make 64 0.0) in
  (* Carry the fractional packet budget across slots so low-rate slots
     still contribute. *)
  let carry = ref 0.0 in
  for i = 0 to Array.length rates - 1 do
    let budget = !carry +. (rates.(i) *. slot /. packet_size) in
    let n = int_of_float budget in
    carry := budget -. float_of_int n;
    if n > 0 then begin
      ensure scratch n;
      let times = !scratch in
      let t0 = float_of_int i *. slot in
      let spacing = slot /. float_of_int n in
      for k = 0 to n - 1 do
        times.(k) <- t0 +. ((float_of_int k +. 0.5) *. spacing)
      done;
      f times n
    end
  done
