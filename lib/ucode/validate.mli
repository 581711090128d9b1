(** Structural well-formedness checks on the IR.

    Run after the front end and (in tests, or with
    [Hlo.Config.validate]) after every transformation. *)

type error = { where : string; what : string }

val pp_error : Format.formatter -> error -> unit

(** All problems in one routine: missing blocks, duplicate or
    out-of-range block ids, out-of-range registers, branches to missing
    blocks, duplicate parameters. *)
val check_routine : Types.routine -> error list

(** Routine-level checks plus program-level ones: unique routine and
    global names, resolvable direct callees ([Faddr]/[Gaddr] targets
    included), existing [main], globally unique in-range site ids,
    sane global sizes and initializers. *)
val check_program : Types.program -> error list

val errors_to_string : error list -> string
