(** Semantic analysis for MiniC.  A module is checked against the
    exports of the rest of the program (the isom model: everything is
    visible at once).  Arity-mismatched calls are *warnings* — the
    dusty-deck C the paper's legality screen must cope with. *)

(** Names exported by the rest of the program. *)
type ext_env = {
  ext_funcs : (string * int) list;  (** exported name, arity *)
  ext_globals : (string * int * bool) list;  (** name, size, is-array *)
}

val empty_ext : ext_env

(** What a module-visible name resolves to (ignoring locals). *)
type kind =
  | Kglobal of { size : int; array : bool }
  | Kfunc of int     (** defined function, arity *)
  | Kbuiltin of int  (** builtin, arity *)

(** Module-level name environment (shared with lowering). *)
type env

val build_env : ext_env -> Ast.unit_ -> env
val lookup : env -> string -> kind option

(** Exports of a parsed module. *)
val exports_of_unit : Ast.unit_ -> ext_env

val combine_exts : ext_env list -> ext_env

(** Check one module; all diagnostics (errors and warnings). *)
val check : ?ext:ext_env -> Ast.unit_ -> Diag.t list

(** Check a whole multi-module program. *)
val check_program : Ast.unit_ list -> Diag.t list
