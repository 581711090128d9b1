(** Control-flow-graph helpers shared by the passes. *)

(** Successor labels of each block. *)
val successors :
  Ucode.Types.routine -> Ucode.Types.label list Ucode.Types.Int_map.t

(** Predecessor labels of each block (blocks without predecessors map
    to []). *)
val predecessors :
  Ucode.Types.routine -> Ucode.Types.label list Ucode.Types.Int_map.t

(** Labels reachable from the entry block. *)
val reachable : Ucode.Types.routine -> Ucode.Types.Int_set.t

(** Blocks in reverse postorder from the entry. *)
val reverse_postorder : Ucode.Types.routine -> Ucode.Types.label list
