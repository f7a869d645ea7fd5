(* Fig. 7: trace-driven counterpart of Fig. 4 — loss measured by feeding
   externally shuffled versions of the MTV-like trace to the exact fluid
   queue simulator, with the shuffle block length playing the role of the
   cutoff lag.  Completely independent of the stochastic model; the
   paper uses the agreement between Figs. 4 and 7 to validate the
   model. *)

let id = "fig7"

let title =
  "Fig. 7: shuffled-trace simulation loss vs (buffer, cutoff) - MTV, \
   utilization 0.8"

let table ctx ~title cells =
  let quick = Data.quick ctx in
  {
    Table.title;
    xlabel = "cutoff_s";
    ylabel = "buffer_s";
    zlabel = "simulated loss rate";
    xs = Sweep.cutoffs ~quick ();
    ys = Sweep.buffers ~quick ();
    cells;
  }

let surface ctx ~trace ~utilization ~title =
  let quick = Data.quick ctx in
  table ctx ~title
    (Sweep.shuffled_losses ?pool:(Data.pool ctx) ~seed:(Data.seed ctx) trace
       ~utilization ~buffers:(Sweep.buffers ~quick ())
       ~cutoffs:(Sweep.cutoffs ~quick ()))

let compute ctx = table ctx ~title (Data.mtv_shuffled_losses ctx)
let run ctx fmt = Table.print_surface fmt (compute ctx)
