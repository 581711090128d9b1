(** Pretty-printing of the IR for diagnostics, tests and [--dump-ir]. *)

val binop_name : Types.binop -> string
val pp_instr : Format.formatter -> Types.instr -> unit
val pp_term : Format.formatter -> Types.terminator -> unit
val pp_program : Format.formatter -> Types.program -> unit
val program_to_string : Types.program -> string
