(** Per-routine and per-edge summaries feeding the heuristics:
    parameter-usage descriptors P(R), calling-context descriptors S(E),
    and the block/site frequency estimates shared by the cloner's and
    inliner's benefit calculations. *)

(** Frequency weight assigned to in-loop blocks without profile data. *)
val loop_weight : float

(** Execution weight of a block relative to its routine's entry
    (1.0 = once per invocation). *)
val block_relative_weight :
  config:Config.t ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  Ucode.Types.label ->
  float

(** Absolute frequency estimate of a call site: measured count with
    profile data, the loop heuristic without. *)
val site_frequency :
  config:Config.t ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  site:Ucode.Types.site ->
  label:Ucode.Types.label ->
  float

(** What the caller knows about an actual argument. *)
type context_value = Cconst of int64 | Cfun of string | Cunknown

(** S(E) for every call site of the routine. *)
val edge_contexts :
  Ucode.Types.routine -> context_value list Ucode.Types.Int_map.t

(** P(R): per-formal interest weights; [pu_indirect] flags formals that
    reach the function position of an indirect call (the
    devirtualization enabler, weighted highest). *)
type param_usage = {
  pu_weights : float array;
  pu_indirect : bool array;
}

val param_usage :
  config:Config.t ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  param_usage
