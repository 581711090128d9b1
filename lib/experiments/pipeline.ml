(** The end-to-end measurement pipeline shared by all experiments,
    mirroring the paper's methodology (§3):

    1. compile the benchmark's modules and link them (the isom path);
    2. compile the *train* configuration, run it instrumented in the IR
       interpreter, and keep the profile database (site and block ids
       are stable across the two configurations, which differ only in a
       data constant — just as SPEC train/ref differ only in inputs);
    3. observe the untransformed program in the reference interpreter;
    4. per configuration, run HLO at the requested scope/transform
       setting, lower to VR32, lay out, and simulate: cycles are the
       "run time", and the ucode cost model supplies the "compile time"
       units.

    Steps 1–3 are invariant across configurations and done once by
    {!prepare}; step 4 is {!measure}. *)

module U = Ucode.Types

type ctx = {
  name : string;
  program : U.program;
  profile : Ucode.Profile.t;
  reference : Oracle.outcome;
  compile_seconds : float;
  train_seconds : float;
}

(** Profile a benchmark: compile at train size, run instrumented. *)
let train_profile (b : Workloads.Suite.benchmark) : Ucode.Profile.t =
  let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
  (Interp.train p).Interp.profile

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

let prepare ?(input = Workloads.Suite.Ref) (b : Workloads.Suite.benchmark) =
  let program, compile_seconds =
    timed (fun () -> Workloads.Suite.compile b ~input)
  in
  let profile, train_seconds = timed (fun () -> train_profile b) in
  { name = b.Workloads.Suite.b_name; program; profile;
    reference = Oracle.observe program; compile_seconds; train_seconds }

let of_program ~name program =
  let profile, train_seconds =
    timed (fun () -> (Interp.train program).Interp.profile)
  in
  { name; program; profile; reference = Oracle.observe program;
    compile_seconds = 0.0; train_seconds }

type run = {
  r_program : U.program;
  r_report : Hlo.Report.t;
  r_metrics : Machine.Metrics.t;
  r_output : string;
  r_hlo_seconds : float;
}

(* Guard against miscompilation: the transformed program must produce
   the same output as the untransformed original. *)
let simulate ?sim_config ctx program =
  let sim = Machine.Sim.run_program ?config:sim_config program in
  (match ctx.reference with
  | Oracle.Finished ob
    when String.equal ob.Oracle.ob_output sim.Machine.Sim.output ->
    ()
  | Oracle.Finished _ ->
    invalid_arg
      (Printf.sprintf "pipeline: %s output changed under HLO" ctx.name)
  | outcome ->
    invalid_arg
      (Printf.sprintf "pipeline: %s reference run did not finish: %s" ctx.name
         (Oracle.outcome_to_string outcome)));
  sim

let measure ?sim_config ctx (config : Hlo.Config.t) : run =
  let profile =
    if config.Hlo.Config.use_profile then ctx.profile else Ucode.Profile.empty
  in
  let result, hlo_seconds =
    timed (fun () -> Hlo.Driver.run ~config ~profile ctx.program)
  in
  let sim = simulate ?sim_config ctx result.Hlo.Driver.program in
  { r_program = result.Hlo.Driver.program; r_report = result.Hlo.Driver.report;
    r_metrics = sim.Machine.Sim.metrics; r_output = sim.Machine.Sim.output;
    r_hlo_seconds = hlo_seconds }

let run_benchmark ?input ?sim_config ~config b =
  measure ?sim_config (prepare ?input b) config

(** The four transform configurations of Figure 6. *)
type transforms = Neither | Inline_only | Clone_only | Both

let transforms_name = function
  | Neither -> "neither"
  | Inline_only -> "inline"
  | Clone_only -> "clone"
  | Both -> "inline and clone"

let config_of_transforms ?(base = Hlo.Config.default) = function
  | Neither -> Hlo.Config.with_transforms base ~inline:false ~clone:false
  | Inline_only -> Hlo.Config.with_transforms base ~inline:true ~clone:false
  | Clone_only -> Hlo.Config.with_transforms base ~inline:false ~clone:true
  | Both -> Hlo.Config.with_transforms base ~inline:true ~clone:true
