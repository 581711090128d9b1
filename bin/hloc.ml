(* hloc: the MiniC compiler driver.

   Compiles one or more .mc modules, links them, optionally runs the
   instrumented training interpreter to gather PBO data, applies HLO
   inlining and cloning at the requested scope and budget, and then
   either dumps the result or executes it (IR interpreter or VR32
   machine simulator).

     hloc a.mc b.mc --scope cp --budget 100 --run sim --stats

   The isom path (the paper's separate-compilation model):

     hloc -c a.mc b.isom            # compile one module to a.isom
     hloc --link a.isom b.isom      # link isoms, then HLO as usual
     hloc --incremental a.mc b.mc   # manifest-driven rebuild + link

   All three produce bit-identical results to the whole-program
   compile: the same front-end stages run either way, and profile
   fragments stored in isoms are only used when every module has
   one. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let module_name_of_path path = Filename.remove_extension (Filename.basename path)

type runner = Run_none | Run_interp | Run_sim
type trace_format = Trace_chrome | Trace_jsonl
type mode = Whole | Compile_only | Link_isoms | Incremental

let is_isom_path path = Filename.check_suffix path ".isom"

(* Classify command-line inputs for the isom modes: [.isom] files are
   read (fatally — if you named an object file you meant it), anything
   else is MiniC source. *)
let classify_inputs files =
  List.map
    (fun path ->
      if is_isom_path path then
        match Isom.File.read ~path with
        | Ok i -> (path, Isom.Build.Obj i)
        | Error msg -> raise (Sys_error msg)
      else
        ( path,
          Isom.Build.Src
            (Minic.Compile.source ~module_name:(module_name_of_path path)
               (read_file path)) ))
    files

type daemon_mode = Daemon_off | Daemon_auto | Daemon_require

(* Replay daemon output pieces exactly as the in-process path prints
   them: "diag" to stderr, everything else to stdout in order. *)
let print_daemon_outputs outputs =
  List.iter
    (fun (channel, text) ->
      if channel = "diag" then prerr_string text else print_string text)
    outputs;
  flush stdout;
  flush stderr

(* Route an eligible compile through a running hlod.  [Ok result] is a
   final answer (success or a faithfully replayed failure); [Error msg]
   means "no usable daemon" — `--daemon auto` falls back to the
   in-process pipeline, `--daemon require` reports [msg]. *)
let try_daemon ~socket ~files ~scope ~budget ~passes ~no_inline ~no_clone
    ~max_ops ~policy_text ~inline_mode ~dump_ir ~dump_asm ~dump_profile
    ~dump_journal ~stats ~runner ~main =
  let module P = Serve.Protocol in
  let socket =
    match socket with Some s -> s | None -> Serve.Client.default_socket ()
  in
  if not (Serve.Client.probe socket) then
    Error (Printf.sprintf "no hlod daemon answering at %s" socket)
  else
    match Serve.Client.connect socket with
    | Error msg -> Error msg
    | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let modules =
        List.map
          (fun path -> (module_name_of_path path, read_file path))
          files
      in
      let options =
        { P.co_scope = Hlo.Config.scope_name scope; co_budget = budget;
          co_passes = passes; co_inline = not no_inline;
          co_clone = not no_clone; co_max_ops = max_ops;
          co_policy = policy_text;
          co_inline_mode = Policy.inline_mode_name inline_mode;
          co_main = main;
          co_runner =
            (match runner with
            | Run_none -> "none"
            | Run_interp -> "interp"
            | Run_sim -> "sim");
          co_stats = stats; co_dump_ir = dump_ir;
          co_dump_profile = dump_profile; co_dump_asm = dump_asm;
          co_dump_journal = dump_journal }
      in
      (match Serve.Client.roundtrip client (P.Compile { modules; options }) with
      | Error msg -> Error ("daemon request failed: " ^ msg)
      | Ok (P.Compiled { outputs; _ }) ->
        print_daemon_outputs outputs;
        Ok (`Ok ())
      | Ok (P.Failed { reason; outputs; _ }) ->
        print_daemon_outputs outputs;
        Ok (`Error (false, reason))
      | Ok (P.Rejected rj) ->
        Ok
          (`Error
            (false,
             Printf.sprintf "daemon rejected the request (%s): %s"
               rj.P.rj_kind rj.P.rj_reason))
      | Ok _ -> Error "daemon sent an unexpected response")

let compile_and_run files scope budget passes no_inline no_clone max_ops
    inline_mode region_cold_fraction
    policy_file dump_policy dump_ir dump_asm dump_profile dump_journal stats
    runner main trace trace_format telemetry_summary summary_cache
    compile_only link_isoms incremental isom_dir output write_profiles daemon
    daemon_socket =
  (* The policy (when given) overlays the tuned knobs — budget, staging,
     pass limit, heuristics thresholds, stage order — on top of the
     flag-derived configuration, so `--policy` wins over `--budget` and
     `--passes`.  Scope and transform switches stay with the flags. *)
  match
    match policy_file with
    | None -> Ok None
    | Some path -> (
      match Policy.load ~path with
      | Ok (Some p) -> Ok (Some p)
      | Ok None -> Error (Printf.sprintf "policy file %s does not exist" path)
      | Error msg -> Error msg)
  with
  | Error msg -> `Error (false, msg)
  | Ok policy_opt ->
  let config =
    let base =
      Hlo.Config.with_scope
        { Hlo.Config.default with
          Hlo.Config.budget_percent = budget; pass_limit = passes;
          enable_inlining = not no_inline; enable_cloning = not no_clone;
          max_operations = max_ops; inline_mode;
          region_cold_fraction }
        scope
    in
    match policy_opt with
    | None -> base
    | Some p -> Hlo.Config.of_policy ~base p
  in
  if dump_policy then begin
    print_string (Policy.to_string (Hlo.Config.to_policy config));
    `Ok ()
  end
  else if files = [] then `Error (true, "no input files")
  else
  match
    (match (compile_only, link_isoms, incremental) with
    | true, true, _ | true, _, true | _, true, true ->
      Error "at most one of -c, --link and --incremental may be given"
    | true, false, false -> Ok Compile_only
    | false, true, false -> Ok Link_isoms
    | false, false, true ->
      if List.exists is_isom_path files then
        Error "--incremental recompiles from source; pass .mc files, not .isom"
      else Ok Incremental
    | false, false, false ->
      (* Naming an object file implies linking. *)
      Ok (if List.exists is_isom_path files then Link_isoms else Whole))
  with
  | Error msg -> `Error (false, msg)
  | Ok mode when output <> None && mode <> Compile_only ->
    ignore mode; `Error (false, "-o is only meaningful with -c")
  | Ok mode ->
  (* Daemon routing: whole-program compiles whose only side effects are
     the printed outputs can be served by a running hlod — the daemon
     renders through the same code, so the bytes are identical.  Modes
     that write files (isom objects, traces, profile fragments, the
     summary cache) stay in-process. *)
  let daemon_eligible =
    mode = Whole && trace = None && (not telemetry_summary)
    && summary_cache = None && (not write_profiles)
    (* The bare --region-cold-fraction flag has no wire slot (a policy
       file carries it fine); a non-default value compiles in-process. *)
    && region_cold_fraction
       = Hlo.Config.default.Hlo.Config.region_cold_fraction
  in
  let daemon_verdict =
    match daemon with
    | Daemon_off -> `In_process
    | (Daemon_auto | Daemon_require) when not daemon_eligible ->
      if daemon = Daemon_require then
        `Fail
          "--daemon require: this invocation is not daemon-eligible \
           (isom modes, --trace, --telemetry-summary, --summary-cache \
           and --write-profiles run in-process)"
      else `In_process
    | Daemon_auto | Daemon_require -> (
      match
        try_daemon ~socket:daemon_socket ~files ~scope ~budget ~passes
          ~no_inline ~no_clone ~max_ops
          ~policy_text:(Option.map Policy.to_string policy_opt)
          ~inline_mode ~dump_ir ~dump_asm ~dump_profile ~dump_journal ~stats
          ~runner ~main
      with
      | Ok result -> `Served result
      | Error msg ->
        if daemon = Daemon_require then `Fail msg else `In_process)
  in
  match daemon_verdict with
  | `Served result -> result
  | `Fail msg -> `Error (false, msg)
  | `In_process ->
  (* Summary cache: warm the memo store from disk before compiling and
     persist it afterwards — including on a failed compile, since
     entries computed before the failure are still valid. *)
  (match summary_cache with
  | None -> ()
  | Some path ->
    (match Hlo.Summary_cache.load path with
    | Ok n -> if stats && n > 0 then Fmt.pr "[cache] loaded %d summaries@." n
    | Error msg -> Fmt.epr "hloc: ignoring summary cache: %s@." msg));
  let save_summary_cache () =
    match summary_cache with
    | None -> ()
    | Some path ->
      (match Hlo.Summary_cache.save path with
      | Ok () -> ()
      | Error msg -> Fmt.epr "hloc: cannot write summary cache: %s@." msg)
  in
  Fun.protect ~finally:save_summary_cache @@ fun () ->
  (* Telemetry: install a collector when any observability flag is on
     (the decision journal needs one too); export/summarize even if the
     compile or the run traps. *)
  let collector =
    if trace <> None || telemetry_summary || dump_journal then begin
      let c = Telemetry.Collector.create () in
      Telemetry.Collector.install c;
      Some c
    end
    else None
  in
  let finish_telemetry () =
    match collector with
    | None -> ()
    | Some c ->
      Telemetry.Collector.uninstall ();
      (match trace with
      | None -> ()
      | Some path ->
        let contents =
          match trace_format with
          | Trace_chrome -> Telemetry.Export.chrome_string c
          | Trace_jsonl -> Telemetry.Export.jsonl c
        in
        (* Runs from Fun.protect's finally: an unwritable path must not
           turn into an "internal error" backtrace. *)
        try Telemetry.Export.write_file ~path contents
        with Sys_error msg -> Fmt.epr "hloc: cannot write trace: %s@." msg);
      if telemetry_summary then Fmt.pr "%a@." Telemetry.Summary.pp c
  in
  Fun.protect ~finally:finish_telemetry @@ fun () ->
  try
    match mode with
    | Compile_only ->
      let inputs = classify_inputs files in
      let n_sources =
        List.length
          (List.filter
             (fun (_, i) ->
               match i with Isom.Build.Obj _ -> false | _ -> true)
             inputs)
      in
      if output <> None && n_sources <> 1 then
        `Error (false, "-o requires exactly one source module")
      else begin
        let isoms, diags = Isom.Build.compile_inputs (List.map snd inputs) in
        prerr_string (Serve.Render.diag diags);
        List.iter2
          (fun (path, input) isom ->
            match input with
            | Isom.Build.Obj _ -> ()  (* inputs providing exports only *)
            | _ ->
              let out =
                match output with
                | Some o -> o
                | None -> Filename.remove_extension path ^ ".isom"
              in
              (match Isom.File.write ~path:out isom with
              | Ok () -> if stats then Fmt.pr "[isom] wrote %s@." out
              | Error msg -> raise (Sys_error msg)))
          inputs isoms;
        `Ok ()
      end
    | (Whole | Link_isoms | Incremental) as mode ->
    let program, diags, link_info =
      match mode with
      | Compile_only -> assert false
      | Whole ->
        let sources =
          List.map
            (fun path ->
              Minic.Compile.source ~module_name:(module_name_of_path path)
                (read_file path))
            files
        in
        let program, diags =
          Telemetry.Collector.with_span "minic.compile" (fun () ->
              Minic.Compile.compile_program ~main sources)
        in
        (program, diags, None)
      | Link_isoms ->
        let inputs = classify_inputs files in
        let isoms, diags = Isom.Build.compile_inputs (List.map snd inputs) in
        let program, maps, seed = Isom.Build.link ~main isoms in
        (* Only inputs that exist as .isom files on disk can receive
           profile fragments later; sources compiled on the fly are
           linked but not persisted. *)
        let paired =
          List.filter_map
            (fun ((path, input), isom) ->
              match input with
              | Isom.Build.Obj _ -> Some (path, isom)
              | _ -> None)
            (List.combine inputs isoms)
        in
        (program, diags, Some (maps, paired, seed))
      | Incremental ->
        let sources =
          List.map
            (fun path ->
              Minic.Compile.source ~module_name:(module_name_of_path path)
                (read_file path))
            files
        in
        let isoms, diags, st =
          Isom.Build.compile_incremental ~dir:isom_dir sources
        in
        if stats then begin
          Fmt.pr "[isom] reused=%d recompiled=%d@."
            (List.length st.Isom.Build.s_reused)
            (List.length st.Isom.Build.s_recompiled);
          List.iter
            (fun (m, reason) -> Fmt.pr "[isom] recompiled %s: %s@." m reason)
            st.Isom.Build.s_recompiled
        end;
        let program, maps, seed = Isom.Build.link ~main isoms in
        let paired =
          List.map
            (fun i ->
              ( Filename.concat isom_dir
                  (Isom.File.file_name (Isom.File.name i)),
                i ))
            isoms
        in
        (program, diags, Some (maps, paired, seed))
    in
    prerr_string (Serve.Render.diag diags);
    let seed_profile =
      match link_info with Some (_, _, s) -> s | None -> None
    in
    let profile, trained =
      if config.Hlo.Config.use_profile then
        match seed_profile with
        | Some p ->
          (* Every isom carried a fragment from an earlier training
             run over these exact module bodies; merging them
             reproduces that profile, so skip retraining. *)
          if stats then
            Fmt.pr "[isom] profile seeded from module fragments@.";
          (p, false)
        | None ->
          let r = Interp.train program in
          if stats then print_string (Serve.Render.train_line r);
          (r.Interp.profile, true)
      else (Ucode.Profile.empty, false)
    in
    (match link_info with
    | Some (maps, paired, _) when write_profiles ->
      if not (config.Hlo.Config.use_profile && trained) then begin
        if stats then Fmt.pr "[isom] profile fragments unchanged@."
      end
      else (
        match Isom.Build.write_fragments paired ~maps ~profile with
        | Ok () ->
          if stats then
            Fmt.pr "[isom] wrote %d profile fragments@." (List.length paired)
        | Error msg ->
          Fmt.epr "hloc: cannot write profile fragments: %s@." msg)
    | Some _ -> ()
    | None ->
      if write_profiles then
        Fmt.epr "hloc: ignoring --write-profiles (whole-program mode)@.");
    if dump_profile then print_string (Serve.Render.profile profile);
    let result = Hlo.Driver.run ~config ~profile program in
    let optimized = result.Hlo.Driver.program in
    if stats then
      print_string (Serve.Render.report_line result.Hlo.Driver.report);
    if dump_ir then print_string (Serve.Render.ir optimized);
    if dump_asm then print_string (Serve.Render.asm optimized);
    if dump_journal then
      print_string
        (Serve.Render.journal
           (match collector with
           | Some c -> Telemetry.Collector.decisions c
           | None -> []));
    (match runner with
    | Run_none -> ()
    | Run_interp ->
      let r = Interp.run optimized in
      print_string r.Interp.output;
      if stats then print_string (Serve.Render.interp_stats_line r)
    | Run_sim ->
      let r = Machine.Sim.run_program optimized in
      print_string r.Machine.Sim.output;
      if stats then print_string (Serve.Render.sim_stats_line r));
    `Ok ()
  with
  | Minic.Diag.Compile_error diags ->
    prerr_string (Serve.Render.diag diags);
    `Error (false, "compilation failed")
  | Sys_error msg -> `Error (false, msg)
  | Ucode.Linker.Link_error msg -> `Error (false, "link error: " ^ msg)
  | Interp.Trap (t, where) ->
    `Error (false, Printf.sprintf "trap in %s: %s" where (Interp.trap_message t))
  | Machine.Sim.Trap (t, pc) ->
    `Error
      (false, Printf.sprintf "machine trap at %d: %s" pc (Machine.Sim.trap_message t))

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"MiniC source modules ($(b,.mc)) and/or isom object files \
               ($(b,.isom)); the module name is the file basename.  \
               Required except with $(b,--dump-policy).")

let scope =
  let parse = function
    | "base" -> Ok Hlo.Config.Base
    | "c" -> Ok Hlo.Config.C
    | "p" -> Ok Hlo.Config.P
    | "cp" -> Ok Hlo.Config.CP
    | s -> Error (`Msg ("unknown scope " ^ s))
  in
  let print ppf s = Fmt.string ppf (Hlo.Config.scope_name s) in
  Arg.(value
       & opt (conv (parse, print)) Hlo.Config.CP
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
  let parse s =
    match Policy.inline_mode_of_name s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Fmt.string ppf (Policy.inline_mode_name m) in
  Arg.(value
       & opt (conv (parse, print)) Policy.Whole
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
                 thresholds, stage order — overriding $(b,--budget) and \
                 $(b,--passes).  Scope and transform switches still come \
                 from the flags.")

let dump_policy =
  Arg.(value & flag
       & info [ "dump-policy" ]
           ~doc:"Print the effective policy in its canonical text form \
                 and exit without compiling.  Composes with the tuning \
                 flags and $(b,--policy), so it shows exactly what a \
                 compile with the same flags would use.")

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
  Arg.(value & flag & info [ "stats" ] ~doc:"Print transformation and run statistics.")

let runner =
  let parse = function
    | "none" -> Ok Run_none
    | "interp" -> Ok Run_interp
    | "sim" -> Ok Run_sim
    | s -> Error (`Msg ("unknown runner " ^ s))
  in
  let print ppf = function
    | Run_none -> Fmt.string ppf "none"
    | Run_interp -> Fmt.string ppf "interp"
    | Run_sim -> Fmt.string ppf "sim"
  in
  Arg.(value
       & opt (conv (parse, print)) Run_sim
       & info [ "run" ] ~docv:"ENGINE"
           ~doc:"Execute the result: $(b,interp), $(b,sim) or $(b,none).")

let entry_name =
  Arg.(value & opt string "main"
       & info [ "main" ] ~docv:"NAME" ~doc:"Entry routine.")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record telemetry (per-phase spans, counters and the \
                 optimizer decision journal) and write it to $(docv) on \
                 exit; the format is chosen by $(b,--trace-format).")

let trace_format =
  let parse = function
    | "chrome" -> Ok Trace_chrome
    | "jsonl" -> Ok Trace_jsonl
    | s -> Error (`Msg ("unknown trace format " ^ s))
  in
  let print ppf = function
    | Trace_chrome -> Fmt.string ppf "chrome"
    | Trace_jsonl -> Fmt.string ppf "jsonl"
  in
  Arg.(value
       & opt (conv (parse, print)) Trace_chrome
       & info [ "trace-format" ] ~docv:"FORMAT"
           ~doc:"Trace file format: $(b,chrome) (a chrome://tracing / \
                 Perfetto trace.json) or $(b,jsonl) (one JSON event per \
                 line).")

let telemetry_summary =
  Arg.(value & flag
       & info [ "telemetry-summary" ]
           ~doc:"Print a human-readable summary of phase timings, \
                 counters and optimizer decisions.")

let summary_cache =
  Arg.(value & opt (some string) None
       & info [ "summary-cache" ] ~docv:"PATH"
           ~doc:"Persist the content-hashed routine summary cache to \
                 $(docv): load it before compiling (if it exists) and \
                 save it back on exit, so repeated compiles of \
                 overlapping code skip recomputing summaries.")

let compile_only =
  Arg.(value & flag
       & info [ "c"; "compile-only" ]
           ~doc:"Compile each source module to an isom object file and stop \
                 (no link, no optimization, no run).  $(b,.isom) arguments \
                 contribute their exports but are not rewritten.")

let link_isoms =
  Arg.(value & flag
       & info [ "link" ]
           ~doc:"Link isom object files (compiling any $(b,.mc) arguments \
                 on the fly) and continue with the usual HLO pipeline.  \
                 Implied when any argument is a $(b,.isom) file.")

let incremental =
  Arg.(value & flag
       & info [ "incremental" ]
           ~doc:"Build the given source modules through the isom directory \
                 (see $(b,--isom-dir)): modules whose source and imported \
                 exports are unchanged since the last build are loaded from \
                 their isom instead of recompiled, then everything is \
                 linked and optimized as usual.  The result is bit-identical \
                 to a whole-program compile.")

let isom_dir =
  Arg.(value & opt string "_isom"
       & info [ "isom-dir" ] ~docv:"DIR"
           ~doc:"Directory holding isom object files and the build manifest \
                 for $(b,--incremental).")

let output =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path for $(b,-c) (requires exactly one source \
                 module; default: the source path with a $(b,.isom) \
                 extension).")

let write_profiles =
  Arg.(value & flag
       & info [ "write-profiles" ]
           ~doc:"After training, slice the profile per module and store \
                 each module's fragment into its isom file, so later links \
                 of the same isoms can skip training.")

let daemon =
  let parse = function
    | "off" -> Ok Daemon_off
    | "auto" -> Ok Daemon_auto
    | "require" -> Ok Daemon_require
    | s -> Error (`Msg ("unknown daemon mode " ^ s))
  in
  let print ppf = function
    | Daemon_off -> Fmt.string ppf "off"
    | Daemon_auto -> Fmt.string ppf "auto"
    | Daemon_require -> Fmt.string ppf "require"
  in
  Arg.(value
       & opt (conv (parse, print)) Daemon_off
       & info [ "daemon" ] ~docv:"MODE"
           ~doc:"Route eligible compiles through a running $(b,hlod): \
                 $(b,off) (never), $(b,auto) (use the daemon when one \
                 answers, else compile in-process), $(b,require) (fail if \
                 no daemon serves the request).  The output is identical \
                 either way.")

let daemon_socket =
  Arg.(value & opt (some string) None
       & info [ "daemon-socket" ] ~docv:"PATH"
           ~doc:"Socket of the $(b,hlod) daemon (default: \
                 $(b,HLOD_SOCKET), else the per-user temp path).")

let cmd =
  let doc = "profile-guided cross-module inlining and cloning for MiniC" in
  let info = Cmd.info "hloc" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const compile_and_run $ files $ scope $ budget $ passes $ no_inline
            $ no_clone $ max_ops $ inline_mode $ region_cold_fraction
            $ policy_file $ dump_policy
            $ dump_ir $ dump_asm $ dump_profile
            $ dump_journal $ stats $ runner $ entry_name $ trace $ trace_format
            $ telemetry_summary $ summary_cache $ compile_only
            $ link_isoms $ incremental $ isom_dir $ output $ write_profiles
            $ daemon $ daemon_socket))

let () = exit (Cmd.eval cmd)
