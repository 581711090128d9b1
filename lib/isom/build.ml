(** Separate-compilation build driver.  See the interface for the
    model; the invariants that matter here:

    - sources and isoms are processed in caller order everywhere, so
      the linked program, diagnostics and site numbering are identical
      to a whole-program compile;
    - the incremental planner is single-pass: exports depend only on a
      module's own source, so demoting a reuse candidate to dirty
      (reason [ext-changed]) cannot change what anything else sees. *)

type input =
  | Src of Minic.Compile.source
  | Parsed of Minic.Compile.source * Minic.Ast.unit_
  | Obj of File.t

let input_name = function
  | Src s | Parsed (s, _) -> s.Minic.Compile.src_module
  | Obj i -> File.name i

(* ------------------------------------------------------------------ *)
(* Batch compilation.                                                  *)

let compile_inputs (inputs : input list) :
    File.t list * Minic.Diag.t list =
  let parsed =
    List.map
      (function
        | Src s -> `Unit (s, Minic.Compile.parse_source s)
        | Parsed (s, u) -> `Unit (s, u)
        | Obj i -> `Obj i)
      inputs
  in
  let exports =
    List.map
      (function
        | `Unit (_, u) ->
          (u.Minic.Ast.u_name, Minic.Sema.exports_of_unit u)
        | `Obj i -> (File.name i, i.File.i_exports))
      parsed
  in
  let diags =
    List.concat_map
      (function
        | `Obj _ -> []
        | `Unit (_, (u : Minic.Ast.unit_)) ->
          Minic.Sema.check
            ~ext:(Minic.Compile.ext_for ~exports ~module_name:u.u_name)
            u)
      parsed
  in
  Minic.Diag.fail_on_errors diags;
  let isoms =
    List.map
      (function
        | `Obj i -> i
        | `Unit (s, (u : Minic.Ast.unit_)) ->
          Telemetry.Collector.with_span "isom.compile" @@ fun () ->
          let ext =
            Minic.Compile.ext_for ~exports ~module_name:u.u_name
          in
          let m = Minic.Compile.lower_checked_unit ~ext u in
          File.make
            ~source_hash:(Minic.Compile.source_hash s)
            ~ext_hash:(File.module_ext_hash m ext)
            ~exports:(Minic.Sema.exports_of_unit u)
            m)
      parsed
  in
  (isoms, diags)

(* ------------------------------------------------------------------ *)
(* Incremental planning.                                               *)

type stats = {
  s_reused : string list;
  s_recompiled : (string * string) list;
}

type verdict =
  | Reuse of File.t
  | Recompile of string

(** Decide, per source, whether its isom under [dir] is still valid.
    Returns inputs aligned with [sources] plus the recompile reason
    (None = reused). *)
let plan ~dir ~(manifest : Manifest.t) (sources : Minic.Compile.source list)
    : (input * string option) list =
  Telemetry.Collector.with_span "isom.plan" @@ fun () ->
  let verdicts =
    List.map
      (fun (s : Minic.Compile.source) ->
        let src_hash = Minic.Compile.source_hash s in
        match Manifest.find manifest s.src_module with
        | None -> (s, Recompile "new")
        | Some e ->
          if e.Manifest.e_source_hash <> src_hash then
            (s, Recompile "source-changed")
          else (
            match File.read ~path:(Filename.concat dir e.e_isom) with
            | Error _ -> (s, Recompile "unreadable")
            | Ok i ->
              (* Guard against manifest/isom skew: trust the isom's own
                 recorded source hash, not just the manifest's. *)
              if i.File.i_source_hash <> src_hash then
                (s, Recompile "source-changed")
              else (s, Reuse i)))
      sources
  in
  (* Dirty modules must be parsed to learn their exports; reuse
     candidates got theirs from the isom.  Then any candidate whose
     *referenced* slice of the export environment no longer hashes to
     what it was compiled against is demoted to dirty — interface
     changes in modules it never mentions do not invalidate it.  One
     pass suffices: recompiling a module from unchanged source
     reproduces its exports, so demotion never changes the environment
     anyone else sees. *)
  let parsed_dirty =
    List.map
      (fun ((s : Minic.Compile.source), v) ->
        match v with
        | Recompile _ -> Some (Minic.Compile.parse_source s)
        | Reuse _ -> None)
      verdicts
  in
  let exports =
    List.map2
      (fun ((s : Minic.Compile.source), v) u ->
        match (v, u) with
        | Reuse i, _ -> (s.src_module, i.File.i_exports)
        | Recompile _, Some (u : Minic.Ast.unit_) ->
          (u.u_name, Minic.Sema.exports_of_unit u)
        | Recompile _, None -> assert false)
      verdicts parsed_dirty
  in
  List.map2
    (fun ((s : Minic.Compile.source), v) u ->
      match (v, u) with
      | Recompile reason, Some u -> (Parsed (s, u), Some reason)
      | Recompile _, None -> assert false
      | Reuse i, _ ->
        let ext =
          Minic.Compile.ext_for ~exports ~module_name:s.src_module
        in
        if File.module_ext_hash i.File.i_module ext <> i.File.i_ext_hash then
          (Src s, Some "ext-changed")
        else (Obj i, None))
    verdicts parsed_dirty

let ensure_dir dir =
  if not (Sys.file_exists dir) then (
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then
      invalid_arg ("isom directory has no parent: " ^ dir);
    Sys.mkdir dir 0o755)

let compile_incremental ~dir (sources : Minic.Compile.source list) :
    File.t list * Minic.Diag.t list * stats =
  ensure_dir dir;
  let manifest_path = Filename.concat dir Manifest.file_name in
  let manifest =
    match Manifest.load ~path:manifest_path with
    | Ok m -> m
    | Error _ ->
      Telemetry.Collector.count "isom.manifest.corrupt" 1;
      []
  in
  let planned = plan ~dir ~manifest sources in
  List.iter
    (fun (input, reason) ->
      match reason with
      | None -> Telemetry.Collector.count "isom.manifest.hit" 1
      | Some r ->
        Telemetry.Collector.count "isom.manifest.miss" 1;
        Telemetry.Collector.count ("isom.recompile." ^ r) 1;
        ignore (input_name input))
    planned;
  let stats =
    {
      s_reused =
        List.filter_map
          (fun (i, reason) ->
            if reason = None then Some (input_name i) else None)
          planned;
      s_recompiled =
        List.filter_map
          (fun (i, reason) ->
            Option.map (fun r -> (input_name i, r)) reason)
          planned;
    }
  in
  let isoms, diags = compile_inputs (List.map fst planned) in
  List.iter2
    (fun isom (_, reason) ->
      if reason <> None then (
        Telemetry.Collector.with_span "isom.write" @@ fun () ->
        let path = Filename.concat dir (File.file_name (File.name isom)) in
        match File.write ~path isom with
        | Ok () -> ()
        | Error msg -> raise (Sys_error msg)))
    isoms planned;
  let entries =
    List.map
      (fun isom ->
        {
          Manifest.e_module = File.name isom;
          e_source_hash = isom.File.i_source_hash;
          e_ext_hash = isom.File.i_ext_hash;
          e_isom = File.file_name (File.name isom);
        })
      isoms
  in
  (match Manifest.save ~path:manifest_path entries with
  | Ok () -> ()
  | Error msg -> raise (Sys_error msg));
  (isoms, diags, stats)

(* ------------------------------------------------------------------ *)
(* Linking.                                                            *)

let link ?main (isoms : File.t list) =
  Telemetry.Collector.with_span "isom.link" @@ fun () ->
  let exports = List.map (fun i -> (File.name i, i.File.i_exports)) isoms in
  List.iter
    (fun i ->
      let ext =
        Minic.Compile.ext_for ~exports ~module_name:(File.name i)
      in
      if File.module_ext_hash i.File.i_module ext <> i.File.i_ext_hash then
        raise
          (Ucode.Linker.Link_error
             (Printf.sprintf
                "module %s was compiled against a different set of exports \
                 than the modules being linked; recompile it"
                (File.name i))))
    isoms;
  let program, maps =
    Ucode.Linker.link_with_maps ?main
      (List.map (fun i -> i.File.i_module) isoms)
  in
  let profile =
    if isoms <> []
       && List.for_all (fun i -> not (Fragment.is_empty i.File.i_profile)) isoms
    then (
      Telemetry.Collector.count "isom.profile.fragments_used"
        (List.length isoms);
      Some
        (Fragment.merge
           (List.map (fun i -> (File.name i, i.File.i_profile)) isoms)
           ~maps))
    else None
  in
  (program, maps, profile)

let write_fragments paired ~maps ~profile =
  List.fold_left
    (fun acc (path, isom) ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
        let fragment =
          Fragment.of_profile profile ~maps ~module_name:(File.name isom)
        in
        File.write ~path { isom with File.i_profile = fragment })
    (Ok ()) paired
