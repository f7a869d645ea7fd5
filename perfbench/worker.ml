(* One measured run of one workload; prints a single JSON line.

     worker.exe --workload model --seed 7 [--quick] [--traced] *)

let () =
  let workload = ref "" and seed = ref "" and quick = ref false and traced = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME model, trace-sim or packet");
      ("--seed", Arg.Set_string seed, "N workload seed (int64)");
      ("--quick", Arg.Set quick, " quick-size context for every workload");
      ("--traced", Arg.Set traced, " enable telemetry and tracing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "worker.exe --workload NAME --seed N";
  let fail msg =
    prerr_endline ("worker: " ^ msg);
    exit 2
  in
  let w =
    match Perfbench.Workloads.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed =
    match Int64.of_string_opt !seed with
    | Some s -> s
    | None -> fail (Printf.sprintf "bad seed %S" !seed)
  in
  let r = Perfbench.Measure.run ~traced:!traced ~workload:w ~seed ~quick:!quick () in
  print_endline (Lrd_obs.Json.to_string (Perfbench.Measure.to_json r))
