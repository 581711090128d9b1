(** The one whole-program pipeline; see the interface. *)

let runners = [ "none"; "interp"; "sim" ]

let front_end ~main sources =
  Telemetry.Collector.with_span "minic.compile" (fun () ->
      Minic.Compile.compile_program ~main sources)

type profile_source = Trained | Seeded | Unused

let run ~config ~runner ~want ~emit ?seed ?(on_profile = fun _ _ -> ())
    program diags =
  let emit_if name render = if want name then emit name (render ()) in
  emit_if "diag" (fun () -> Render.diag diags);
  let source, profile =
    if not config.Hlo.Config.use_profile then (Unused, Ucode.Profile.empty)
    else
      match seed with
      | Some p -> (Seeded, p)
      | None ->
        let r = Interp.train program in
        emit_if "train" (fun () -> Render.train_line r);
        (Trained, r.Interp.profile)
  in
  on_profile source profile;
  emit_if "profile" (fun () -> Render.profile profile);
  let result = Hlo.Driver.run ~config ~profile program in
  let optimized = result.Hlo.Driver.program in
  emit_if "report" (fun () -> Render.report_line result.Hlo.Driver.report);
  emit_if "ir" (fun () -> Render.ir optimized);
  emit_if "asm" (fun () -> Render.asm optimized);
  emit_if "journal" (fun () ->
      Render.journal
        (match Telemetry.Collector.active () with
        | Some c -> Telemetry.Collector.decisions c
        | None -> []));
  match runner with
  | "interp" ->
    let r = Interp.run optimized in
    emit "run_output" r.Interp.output;
    emit_if "run_stats" (fun () -> Render.interp_stats_line r)
  | "sim" ->
    let r = Machine.Sim.run_program optimized in
    emit "run_output" r.Machine.Sim.output;
    emit_if "run_stats" (fun () -> Render.sim_stats_line r)
  | "none" -> ()
  | r -> invalid_arg ("unknown runner " ^ r)

let guard ~emit f =
  match f () with
  | v -> Ok v
  | exception Minic.Diag.Compile_error diags ->
    emit "diag" (Render.diag diags);
    Error ("compile_error", "compilation failed")
  | exception Ucode.Linker.Link_error msg ->
    Error ("compile_error", "link error: " ^ msg)
  | exception Sys_error msg -> Error ("compile_error", msg)
  | exception Interp.Trap (trap, where) ->
    Error
      ("trap", Printf.sprintf "trap in %s: %s" where (Interp.trap_message trap))
  | exception Machine.Sim.Trap (trap, pc) ->
    Error
      ( "trap",
        Printf.sprintf "machine trap at %d: %s" pc
          (Machine.Sim.trap_message trap) )
  | exception Hlo.Driver.Invalid_ir { stage; errors } ->
    Error ("internal", Printf.sprintf "invalid IR after %s: %s" stage errors)
