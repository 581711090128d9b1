(* The command-line surface `hloc`, `hlo_client` and `hlo_fuzz` share.

   - The knob term: the optimizer flags and --policy resolve to one
     Hlo.Config.t here, for an in-process compile and a daemon request
     alike.  A daemon-served knob needs a flag here and nothing in the
     protocol or the service: the resolved policy travels as text.
   - The output term: what to print and how to run the result.
   - The daemon route: one compile request, its pieces replayed exactly
     as the in-process pipeline prints them. *)

open Cmdliner
module P = Serve.Protocol

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let module_name_of_path path = Filename.remove_extension (Filename.basename path)

(* ------------------------------------------------------------------ *)
(* Converters.                                                         *)

let conv_of parse name =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)),
      fun ppf v -> Fmt.string ppf (name v) )

let scope_conv = conv_of Hlo.Config.scope_of_name Hlo.Config.scope_name

let inline_mode_conv =
  conv_of Policy.inline_mode_of_name Policy.inline_mode_name

let staging_conv =
  conv_of Hlo.Config.staging_of_string Hlo.Config.staging_to_string

let runner_conv =
  conv_of
    (fun s ->
      if List.mem s Serve.Pipeline.runners then Ok s
      else Error ("unknown runner " ^ s))
    Fun.id

(* ------------------------------------------------------------------ *)
(* The knob term.                                                      *)

let scope =
  Arg.(value
       & opt scope_conv Hlo.Config.CP
       & info [ "scope" ] ~docv:"SCOPE"
           ~doc:"Optimization scope: $(b,base) (per-module), $(b,c) \
                 (cross-module), $(b,p) (profile feedback), $(b,cp) (both).")

let budget =
  Arg.(value & opt float 100.0
       & info [ "budget" ] ~docv:"PERCENT"
           ~doc:"Compile-time growth budget as a percentage (paper default \
                 100).")

let passes =
  Arg.(value & opt int 4
       & info [ "passes" ] ~docv:"N" ~doc:"Maximum clone+inline pass pairs.")

let no_inline =
  Arg.(value & flag & info [ "no-inline" ] ~doc:"Disable inlining.")

let no_clone = Arg.(value & flag & info [ "no-clone" ] ~doc:"Disable cloning.")

let max_ops =
  Arg.(value & opt (some int) None
       & info [ "max-operations" ] ~docv:"N"
           ~doc:"Artificially stop after N inline/clone operations (the \
                 Figure 8 instrumentation).")

let inline_mode =
  Arg.(value
       & opt inline_mode_conv Policy.Whole
       & info [ "inline-mode" ] ~docv:"MODE"
           ~doc:"What to do with a callee whose whole body busts the \
                 budget: $(b,whole) rejects the site (the paper), \
                 $(b,region) eagerly outlines its cold regions and \
                 inlines the hot residue, $(b,demand) does the same \
                 lazily from the ranked worklist.  $(b,--policy) \
                 overrides this, like $(b,--budget).")

let region_cold_fraction =
  Arg.(value
       & opt float Hlo.Config.default.Hlo.Config.region_cold_fraction
       & info [ "region-cold-fraction" ] ~docv:"F"
           ~doc:"Region/demand coldness cut: a block below $(docv) times \
                 its routine's hottest block count is outlinable residue.")

let policy_file =
  Arg.(value & opt (some string) None
       & info [ "policy" ] ~docv:"FILE"
           ~doc:"Load a tuned HLO policy (written by $(b,hlo_tune) or \
                 $(b,--dump-policy) plus $(b,Policy.save)) and apply its \
                 knobs — budget, staging, pass limit, heuristic \
                 thresholds, stage order, inline mode — overriding \
                 $(b,--budget), $(b,--passes), $(b,--inline-mode) and \
                 $(b,--region-cold-fraction).  Scope and transform \
                 switches still come from the flags.")

(* The policy (when given) overlays the tuned knobs on top of the
   flag-derived configuration, so --policy wins over --budget and
   --passes.  The result must be a valid policy: the daemon receives
   it as policy text, so an in-process compile holds to the same
   ranges. *)
let resolve scope budget passes no_inline no_clone max_ops inline_mode
    region_cold_fraction policy_file =
  let base =
    Hlo.Config.with_scope
      { Hlo.Config.default with
        Hlo.Config.budget_percent = budget; pass_limit = passes;
        enable_inlining = not no_inline; enable_cloning = not no_clone;
        max_operations = max_ops; inline_mode; region_cold_fraction }
      scope
  in
  let config =
    match policy_file with
    | None -> Ok base
    | Some path -> (
      match Policy.load ~path with
      | Ok (Some p) -> Ok (Hlo.Config.of_policy ~base p)
      | Ok None -> Error (Printf.sprintf "policy file %s does not exist" path)
      | Error msg -> Error msg)
  in
  match config with
  | Error msg -> `Error (false, msg)
  | Ok config -> (
    match Policy.validate (Hlo.Config.to_policy config) with
    | Ok () -> `Ok config
    | Error msg -> `Error (false, "bad knob value: " ^ msg))

let config =
  Term.(ret
          (const resolve $ scope $ budget $ passes $ no_inline $ no_clone
          $ max_ops $ inline_mode $ region_cold_fraction $ policy_file))

(* ------------------------------------------------------------------ *)
(* The output term.                                                    *)

let dump_ir =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized ucode.")

let dump_asm =
  Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the VR32 disassembly.")

let dump_profile =
  Arg.(value & flag
       & info [ "dump-profile" ]
           ~doc:"Print the training profile database (block and call-site \
                 counts).")

let dump_journal =
  Arg.(value & flag
       & info [ "dump-journal" ]
           ~doc:"Print the optimizer decision journal: one line per \
                 inline/clone decision, deterministic (no wall-clock), \
                 identical whether the compile runs in-process or in a \
                 daemon.")

let stats =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print transformation and run statistics.")

let runner =
  Arg.(value & opt runner_conv "sim"
       & info [ "run" ] ~docv:"ENGINE"
           ~doc:"Execute the result: $(b,interp), $(b,sim) or $(b,none).")

let entry_name =
  Arg.(value & opt string "main"
       & info [ "main" ] ~docv:"NAME" ~doc:"Entry routine.")

let outputs =
  let make co_main co_runner co_stats co_dump_ir co_dump_asm co_dump_profile
      co_dump_journal =
    { P.default_options with
      P.co_main; co_runner; co_stats; co_dump_ir; co_dump_asm;
      co_dump_profile; co_dump_journal }
  in
  Term.(const make $ entry_name $ runner $ stats $ dump_ir $ dump_asm
        $ dump_profile $ dump_journal)

(* ------------------------------------------------------------------ *)
(* The daemon route.                                                   *)

(* "diag" to stderr, everything else to stdout in order. *)
let print_piece (channel, text) =
  if channel = "diag" then prerr_string text else print_string text

(* [Ok result] is a final answer (success or a faithfully replayed
   failure); [Error msg] means no usable answer came back. *)
let daemon_compile ?(verbose = false) ~socket ~files options =
  match Serve.Client.connect socket with
  | Error msg -> Error msg
  | Ok client -> (
    Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
    let modules =
      List.map (fun path -> (module_name_of_path path, read_file path)) files
    in
    let replay outputs =
      List.iter print_piece outputs;
      flush stdout;
      flush stderr
    in
    match Serve.Client.roundtrip client (P.Compile { modules; options }) with
    | Error msg -> Error ("daemon request failed: " ^ msg)
    | Ok (P.Compiled { outputs; cache; key; queued; elapsed_us }) ->
      if verbose then
        Fmt.epr "[serve] cache=%s key=%s queued=%b elapsed_us=%.0f@." cache
          key queued elapsed_us;
      replay outputs;
      Ok (`Ok ())
    | Ok (P.Failed { reason; outputs; _ }) ->
      replay outputs;
      Ok (`Error (false, reason))
    | Ok (P.Rejected rj) ->
      Ok
        (`Error
          (false,
           Printf.sprintf "daemon rejected the request (%s): %s"
             rj.P.rj_kind rj.P.rj_reason))
    | Ok _ -> Error "daemon sent an unexpected response")
