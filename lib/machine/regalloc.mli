(** Linear-scan register allocation for VR32.

    Conservative live intervals (extended over every block where
    liveness holds, covering loops); intervals crossing a call must
    live in callee-saved registers; the rest prefer caller-saved.
    When no compatible register is free, the furthest-ending interval
    spills to a frame slot, accessed through the two reserved scratch
    registers. *)

val result_reg : int
val scratch1 : int
val scratch2 : int
val sp : int
val is_callee_saved : int -> bool

type location = Preg of int | Spill of int  (** frame slot index *)

type t = {
  locations : location Ucode.Types.Int_map.t;
  used_callee_saved : int list;  (** ascending; saved in the prologue *)
  nspills : int;
}

(** Location of a virtual register; raises on an unallocated one. *)
val location : t -> Ucode.Types.reg -> location

(** Frame words: spill slots plus the callee-saved save area. *)
val frame_size : t -> int

val allocate : Ucode.Types.routine -> t
