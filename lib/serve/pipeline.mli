(** The whole-program pipeline after the front end: profile → HLO →
    render → run.

    `hloc` (whole, [--link] and [--incremental] compiles) and the
    daemon {!Service} both run exactly this function, so what one
    prints and what the other serves are the same computation, not two
    copies kept in step.  Output leaves through [emit] as named pieces,
    in the order `hloc` prints them:

    ["diag"], ["train"], ["profile"], ["report"], ["ir"], ["asm"],
    ["journal"], ["run_output"], ["run_stats"].

    ["diag"] goes to stderr, every other piece to stdout. *)

(** The execution engines, by name: ["none"], ["interp"], ["sim"]. *)
val runners : string list

(** [front_end ~main sources] compiles and links MiniC modules under a
    ["minic.compile"] span.  Raises [Minic.Diag.Compile_error]. *)
val front_end :
  main:string ->
  Minic.Compile.source list ->
  Ucode.Types.program * Minic.Diag.t list

(** Where the profile handed to HLO came from. *)
type profile_source =
  | Trained  (** a training run of the program *)
  | Seeded  (** the caller's [seed] (isom profile fragments) *)
  | Unused  (** the scope takes no profile: the empty profile *)

(** [run ~config ~runner ~want ~emit program diags] emits ["diag"],
    trains (unless [seed] is given or the scope takes no profile),
    calls [on_profile], runs HLO, renders and runs the result.  A
    piece is rendered only when [want] asks for it; the run itself
    happens whenever [runner] is not ["none"], and ["run_output"] is
    always emitted then.  The journal renders the active telemetry
    collector's decisions (none installed: empty).

    Raises what the stages raise: [Interp.Trap], [Machine.Sim.Trap],
    [Hlo.Driver.Invalid_ir]; [Invalid_argument] on a runner outside
    {!runners} (callers check it first: {!Protocol.resolve}, the
    [--run] flag).  {!guard} turns the others into values. *)
val run :
  config:Hlo.Config.t ->
  runner:string ->
  want:(string -> bool) ->
  emit:(string -> string -> unit) ->
  ?seed:Ucode.Profile.t ->
  ?on_profile:(profile_source -> Ucode.Profile.t -> unit) ->
  Ucode.Types.program ->
  Minic.Diag.t list ->
  unit

(** [guard ~emit f] runs [f], turning the failures of a compile —
    compile errors (their diagnostics are emitted as ["diag"] first),
    link errors, unreadable files, traps, invalid IR — into
    [Error (kind, reason)].  [kind] is ["compile_error"], ["trap"] or
    ["internal"]; [reason] is the sentence `hloc` exits with. *)
val guard :
  emit:(string -> string -> unit) -> (unit -> 'a) -> ('a, string * string) result
