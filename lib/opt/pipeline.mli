(** The scalar optimization pipeline — the stand-in for the paper's
    "aggressive, state-of-the-art global optimizer".

    One round is: CFG simplify, constant propagation (with
    devirtualization), copy propagation, loop-invariant code motion,
    strength reduction, local CSE, DCE, simplify again; rounds repeat
    to quiescence (at most four rounds). *)

(** Optimize every routine; computes the {!Ipa} deletable set and the
    arity environment from the program itself. *)
val optimize_program : Ucode.Types.program -> Ucode.Types.program

(** Optimize only the named routines (used by HLO between passes). *)
val optimize_selected : Ucode.Types.program -> string list -> Ucode.Types.program
