(* The three benchmark workloads.  Together they run every registry
   experiment exactly once; NOTES.md records why each set was chosen. *)

type input = Mtv | Bellcore | Marginals | Epochs

type t = {
  name : string;
  ids : string list;  (** Registry ids, run in registry order. *)
  jobs : int;  (** Requested parallelism, capped at the core count. *)
  quick : bool;
  inputs : input list;  (** Shared inputs forced during set-up. *)
}

let all_inputs = [ Mtv; Bellcore; Marginals; Epochs ]

(* The paper's own computation: solver, workload caches, real-FFT
   convolution, superposition, sweep scheduler and pool. *)
let model =
  {
    name = "model";
    ids =
      [
        "fig2"; "fig4"; "fig5"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
        "fig11_scale"; "abl-solver"; "ext-tails"; "ext-provision";
        "ext-occupancy";
      ];
    jobs = 2;
    quick = false;
    inputs = all_inputs;
  }

(* Trace-driven simulation and estimation: trace synthesis and
   shuffling, the stats estimators, fluidsim and baselines. *)
let trace_sim =
  {
    name = "trace-sim";
    ids =
      [
        "fig3"; "fig6"; "fig7"; "fig8"; "fig14"; "abl-shuffle"; "abl-markov";
        "abl-interarrival"; "ext-estimators"; "ext-stationarity";
        "ext-confidence"; "ext-delay-horizon"; "ext-horizon"; "ext-tandem";
        "ext-priority"; "ext-control"; "ext-ams"; "ext-parsimony";
      ];
    jobs = 1;
    quick = false;
    inputs = all_inputs;
  }

(* Packetization and the packet queue, on the quick context: the full
   size takes about a minute per run. *)
let packet =
  { name = "packet"; ids = [ "ext-packet" ]; jobs = 1; quick = true; inputs = [ Mtv ] }

let all = [ model; trace_sim; packet ]
let find name = List.find_opt (fun w -> w.name = name) all

let entries w =
  List.filter
    (fun (e : Lrd_experiments.Registry.entry) -> List.mem e.id w.ids)
    Lrd_experiments.Registry.all

(* ext-packet's grid: its buffers at each size and its packet sizes.
   The bench keeps its own copy to compute the offered packet count. *)
let packet_buffers ~quick = if quick then 2 else 4
let packet_sizes = [ 0.012; 0.004; 0.001 ]
