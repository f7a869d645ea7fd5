(** Fig. 7: shuffled-trace simulation loss vs (buffer, shuffle block),
    MTV-like trace at utilization 0.8. *)

val id : string
val title : string

val surface :
  Data.t ->
  trace:Lrd_trace.Trace.t ->
  utilization:float ->
  title:string ->
  Table.surface
(** Shared shuffle-simulation sweep ({!Sweep.shuffled_losses}), also
    used by {!Fig08}. *)

val compute : Data.t -> Table.surface
(** The MTV surface, read from {!Data.mtv_shuffled_losses}: {!Fig14}
    and {!Ext_horizon} read the same one. *)

val run : Data.t -> Format.formatter -> unit
