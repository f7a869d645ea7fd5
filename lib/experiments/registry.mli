(** The experiment registry: every paper figure plus the ablations, each
    runnable by id.  This is the single source the bench harness and the
    CLI iterate over. *)

type entry = {
  id : string;  (** Stable identifier, e.g. "fig4" or "abl-shuffle". *)
  title : string;
  shardable : bool;
      (** Every grid of this figure goes through
          {!Sweep.scheduled_surface}, so a {!Shard} handle can slice
          and replay it ([lrd experiment --shard/--shards/--merge]). *)
  run : Data.t -> Format.formatter -> unit;
}

val figures : entry list
(** The paper's figures, in order (fig2 .. fig14). *)

val ablations : entry list
(** The design-choice ablations promised in DESIGN.md. *)

val extensions : entry list
(** Experiments beyond the paper: tail asymptotics, estimator
    comparison, inverse provisioning, occupancy bounds, and the
    correlation-horizon estimate comparison. *)

val all : entry list
(** [figures @ ablations @ extensions]. *)

val find : string -> entry option

type summary = {
  figures : string list;  (** The ids run, in registry order. *)
  wall_seconds : float;  (** Wall time of the whole run. *)
}

val run :
  ?only:string list ->
  ?results:string ->
  Data.t ->
  Format.formatter ->
  summary
(** Runs the selected entries (all by default) in registry order,
    printing each.  Unknown ids in [only] raise [Invalid_argument].

    [?results] additionally tees each figure's pure output to the given
    file, {e excluding} the per-figure ["[... completed in N s CPU]"]
    wall-time line — so two runs with the same parameters produce
    byte-identical results files, which is how the shard-equivalence
    gate compares a merged shard set against the whole run. *)

val write_manifest :
  ?snapshot:Lrd_obs.Obs.snapshot -> string -> Data.t -> summary -> unit
(** [write_manifest ?snapshot path ctx summary] seals a run provenance
    manifest ({!Lrd_obs.Manifest}) at [path]: the figure ids run, the
    context's full parameter set ({!Data.manifest_fields}), the wall
    time, and [snapshot] as the embedded metrics.  A run takes one
    snapshot, after {!Data.teardown} (stopping the pool records the
    workers' last idle spans), and hands the same snapshot to this
    function and to its [--metrics-out] file, so the two agree
    exactly. *)
