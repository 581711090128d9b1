(** Recursive-descent parser for MiniC (precedence climbing for binary
    operators, one-token lookahead; assignment disambiguated by parsing
    an expression and reinterpreting it as an lvalue). *)

exception Parse_error of Diag.t

(** Lex and parse one module from source text. *)
val parse : module_name:string -> file:string -> string -> Ast.unit_
