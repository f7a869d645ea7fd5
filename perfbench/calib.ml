(* Host-speed probe: a fixed kernel, independent of the program under
   test, that prints its own run time in seconds.

     calib.exe

   It touches a fresh 128 MiB array (page faults and zeroing), makes
   random read-modify-writes over it, then runs a dependent float loop.
   On a shared host the benchmark's run times drift by tens of percent
   over minutes with the load other tenants put on the cores, caches
   and memory; this kernel drifts with them (NOTES.md), so run.py takes
   it before and after every measured run and scales the run's times
   by it.  Each probe is a fresh process, so its memory is fresh too. *)

let words = 1 lsl 24
let updates = 3_000_000
let float_rounds = 2_000

let memory () =
  let a = Array.make words 0 in
  let x = ref 12345 in
  for _ = 1 to updates do
    x := ((!x * 1103515245) + 12345) land (words - 1);
    Array.unsafe_set a !x (Array.unsafe_get a !x + 1)
  done;
  a.(!x)

let compute () =
  let a = Array.init 4096 float_of_int in
  let s = ref 0.0 in
  for r = 1 to float_rounds do
    for i = 0 to 4095 do
      s := !s +. sqrt (a.(i) *. float_of_int r)
    done
  done;
  !s

let () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (memory ()));
  ignore (Sys.opaque_identity (compute ()));
  Printf.printf "%.6f\n" (Unix.gettimeofday () -. t0)
