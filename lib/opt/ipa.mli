(** Minimal interprocedural analysis: which routines' calls may be
    deleted when their result is unused.

    Deletable = side-effect free (no stores, no builtin or indirect
    calls, only deletable direct callees) *and* guaranteed to terminate
    (acyclic CFG, no recursion).  This is what lets HLO erase the
    stubbed curses calls of 072.sc before inlining starts (§3.1). *)

(** Names of routines whose calls can be erased when unused. *)
val deletable_routines : Ucode.Types.program -> Ucode.Types.String_set.t
