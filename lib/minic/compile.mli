(** Front-end driver: MiniC source text to a linked ucode program
    (the "front ends + linker" half of the paper's isom pipeline). *)

type source = { src_module : string; src_text : string }

val source : module_name:string -> string -> source

(** Content hash of the module's source text — the isom layer's
    staleness key for incremental rebuilds. *)
val source_hash : source -> Ucode.Hash.t

(** Parse one module.  Raises {!Diag.Compile_error} on lex/parse
    failure. *)
val parse_source : source -> Ast.unit_

(** The external environment a module is compiled against: the exports
    of every *other* module, in program order.  Shared between the
    whole-program path and the isom separate-compilation path so both
    lower a module identically. *)
val ext_for :
  exports:(string * Sema.ext_env) list -> module_name:string -> Sema.ext_env

(** Lower one sema-checked module to linkable IR.  Raises
    {!Diag.Compile_error} if lowering rejects it. *)
val lower_checked_unit :
  ext:Sema.ext_env -> Ast.unit_ -> Ucode.Linker.module_ir

(** Parse, check (each module against the others' exports), lower and
    link a multi-module program.  Returns the program and all
    diagnostics (warnings included).  Raises {!Diag.Compile_error} on
    errors and {!Ucode.Linker.Link_error} on link failures. *)
val compile_program :
  ?main:string -> source list -> Ucode.Types.program * Diag.t list

(** Compile a single-module program given as one string. *)
val compile_string :
  ?module_name:string -> ?main:string -> string -> Ucode.Types.program
