(** Strength reduction: multiplies by power-of-two constants become
    shifts (exact under two's-complement wraparound).  The machine
    retires shifts in one cycle but charges multiplier latency, so the
    rewrite is directly observable in cycles. *)

val run : Ucode.Types.routine -> Ucode.Types.routine * bool
