(** Front-end driver: source text to linked ucode program.

    This is the "front end + linker" half of the paper's isom pipeline:
    every module of the program is parsed, checked against the others'
    exports, lowered, and linked into a single {!Ucode.Types.program}
    ready for HLO.

    The stages are also exposed piecemeal ({!parse_source}, {!ext_for},
    {!lower_checked_unit}) because the isom layer (lib/isom) compiles
    modules *separately* and must produce, module for module, exactly
    the IR the whole-program path produces.  Sharing the stage
    functions and the external-environment rule makes that
    bit-identity true by construction rather than by testing alone. *)

type source = { src_module : string; src_text : string }

let source ~module_name text = { src_module = module_name; src_text = text }

(** Content hash of the module's source text — the isom layer's
    staleness key for incremental rebuilds. *)
let source_hash s = Ucode.Hash.string_hash s.src_text

(** Parse one module (telemetry span [minic.parse]).  Raises
    {!Diag.Compile_error} on lex/parse failure. *)
let parse_source (s : source) : Ast.unit_ =
  Telemetry.Collector.with_span "minic.parse" @@ fun () ->
  if Telemetry.Collector.enabled () then
    Telemetry.Collector.annotate "module" (Telemetry.Event.Str s.src_module);
  try
    Parser.parse ~module_name:s.src_module ~file:(s.src_module ^ ".mc")
      s.src_text
  with
  | Lexer.Lex_error d | Parser.Parse_error d -> raise (Diag.Compile_error [ d ])

(** The external environment module [module_name] is compiled against:
    the exports of every *other* module, in program order.  Both the
    whole-program path below and the separate-compilation path use
    this one rule, so a module's lowering cannot depend on which path
    ran it. *)
let ext_for ~(exports : (string * Sema.ext_env) list) ~module_name :
    Sema.ext_env =
  Sema.combine_exts
    (List.filter_map
       (fun (name, e) -> if name = module_name then None else Some e)
       exports)

(** Lower one sema-checked module (telemetry span [minic.lower]).
    Raises {!Diag.Compile_error} on what sema lets through but lowering
    rejects (e.g. a function name used as a value). *)
let lower_checked_unit ~ext (u : Ast.unit_) : Ucode.Linker.module_ir =
  Telemetry.Collector.with_span "minic.lower" @@ fun () ->
  if Telemetry.Collector.enabled () then
    Telemetry.Collector.annotate "module" (Telemetry.Event.Str u.Ast.u_name);
  try Lower.lower_unit ~ext u
  with Lower.Lower_error d -> raise (Diag.Compile_error [ d ])

(** Compile and link a multi-module program.  Raises
    {!Diag.Compile_error} on the first batch of errors (warnings are
    returned alongside the program).  Modules are parsed and lowered in
    program order, so the first failure is the first module's. *)
let compile_program ?(main = "main") (sources : source list) :
    Ucode.Types.program * Diag.t list =
  let units = List.map parse_source sources in
  let diags = Sema.check_program units in
  Diag.fail_on_errors diags;
  let exports =
    List.map (fun (u : Ast.unit_) -> (u.Ast.u_name, Sema.exports_of_unit u)) units
  in
  let modules =
    List.map
      (fun (u : Ast.unit_) ->
        lower_checked_unit ~ext:(ext_for ~exports ~module_name:u.Ast.u_name) u)
      units
  in
  (Ucode.Linker.link ~main modules, diags)

(** Convenience for tests and examples: compile a single-module
    program given as one source string. *)
let compile_string ?(module_name = "main") ?(main = "main") text =
  fst (compile_program ~main [ source ~module_name text ])
