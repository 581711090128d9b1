(** Source positions and compiler diagnostics. *)

type pos = { file : string; line : int; col : int }

type severity = Error | Warning

type t = { d_pos : pos; d_severity : severity; d_message : string }

val error : pos -> ('a, unit, string, t) format4 -> 'a
val warning : pos -> ('a, unit, string, t) format4 -> 'a
val is_error : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Compile_error of t list

(** Raise {!Compile_error} if any diagnostic is an error. *)
val fail_on_errors : t list -> unit
