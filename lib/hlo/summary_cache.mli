(** Per-version memo for per-routine analyses.

    Facts that depend only on a routine's body — static size, the set
    of blocks on CFG cycles — are memoized per routine version, so
    repeated queries against an unchanged body (the inliner re-scoring
    a callee, each pass re-keying it) walk it once.  A memoized value is
    what recomputation would produce, so the memo never perturbs
    optimizer decisions.  All operations are domain-safe. *)

type entry = {
  e_size : int;                          (** [Ucode.Size.routine_size] *)
  e_cycles : Ucode.Types.Int_set.t;      (** blocks on a CFG cycle *)
}

(** Look up (computing and inserting on miss) the entry for [r]. *)
val find : Ucode.Types.routine -> entry

val size : Ucode.Types.routine -> int

(** Labels of blocks on some cycle of the routine's CFG (self-loops
    included): the loop heuristic that stands in for execution
    frequency when no profile is available. *)
val cycles : Ucode.Types.routine -> Ucode.Types.Int_set.t

type stats = {
  hits : int;
  misses : int;
  entries : int;   (** live bindings: versions still reachable *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** Drop all entries and zero the statistics. *)
val clear : unit -> unit
