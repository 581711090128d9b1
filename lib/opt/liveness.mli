(** Backward liveness analysis over virtual registers; used by
    dead-code elimination, register allocation and the outliner. *)

type t

(** Converged per-block liveness for a routine. *)
val compute : Ucode.Types.routine -> t

(** Registers live at block entry. *)
val live_in : t -> Ucode.Types.label -> Ucode.Types.Int_set.t

(** Registers live at block exit. *)
val live_out : t -> Ucode.Types.label -> Ucode.Types.Int_set.t

(** For each instruction of the block, the registers live *after* it,
    in instruction order. *)
val per_instr_live_out : t -> Ucode.Types.block -> Ucode.Types.Int_set.t list

(** Registers live immediately after each call (excluding the call's
    destination): what a caller must preserve across it.  Site id ->
    live set. *)
val live_across_calls :
  Ucode.Types.routine -> Ucode.Types.Int_set.t Ucode.Types.Int_map.t
