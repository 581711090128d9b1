(** The end-to-end measurement pipeline shared by every experiment and
    by [hlo_tune], mirroring the paper's method (§3): compile and train
    a benchmark once ({!prepare}), then measure any number of HLO
    configurations against that one profile and one reference run
    ({!measure}).  Every measurement is checked: the simulated output
    must equal the untransformed program's. *)

(** A prepared benchmark: everything invariant across HLO
    configurations. *)
type ctx = {
  name : string;  (** the benchmark's name, for rows and diagnostics *)
  program : Ucode.Types.program;  (** untransformed, at the chosen input *)
  profile : Ucode.Profile.t;  (** from the instrumented training run *)
  reference : Oracle.outcome;
      (** the reference interpreter's observation of [program] *)
  compile_seconds : float;  (** CPU seconds compiling [program] *)
  train_seconds : float;
      (** CPU seconds of the training compile and instrumented run *)
}

(** Compile at train size and run instrumented. *)
val train_profile : Workloads.Suite.benchmark -> Ucode.Profile.t

(** Compile [b] at [input] (default [Ref]), profile it with
    {!train_profile} and observe the compiled program in the reference
    interpreter. *)
val prepare : ?input:Workloads.Suite.input -> Workloads.Suite.benchmark -> ctx

(** A context for an already compiled program, trained on itself.  It
    is not compiled here, so its [compile_seconds] reads 0. *)
val of_program : name:string -> Ucode.Types.program -> ctx

type run = {
  r_program : Ucode.Types.program;  (** after HLO *)
  r_report : Hlo.Report.t;
  r_metrics : Machine.Metrics.t;
  r_output : string;  (** simulated output, equal to the reference's *)
  r_hlo_seconds : float;  (** CPU seconds of the HLO run alone *)
}

(** Simulate [program] and return the result.  Raises
    [Invalid_argument] unless the reference run finished and printed
    exactly the simulated output. *)
val simulate :
  ?sim_config:Machine.Sim.config ->
  ctx ->
  Ucode.Types.program ->
  Machine.Sim.result

(** Run HLO on [ctx.program] under [config] — with [ctx.profile] when
    [config] uses profile feedback, without one otherwise — and
    {!simulate} the result. *)
val measure : ?sim_config:Machine.Sim.config -> ctx -> Hlo.Config.t -> run

(** [measure (prepare ?input b) config]: every call compiles, trains
    and runs the reference afresh. *)
val run_benchmark :
  ?input:Workloads.Suite.input ->
  ?sim_config:Machine.Sim.config ->
  config:Hlo.Config.t ->
  Workloads.Suite.benchmark ->
  run

(** The four transform configurations of Figure 6. *)
type transforms = Neither | Inline_only | Clone_only | Both

val transforms_name : transforms -> string
val config_of_transforms : ?base:Hlo.Config.t -> transforms -> Hlo.Config.t
