(** Content-hashed memo store for per-routine analyses (the paper's
    *isom* summary files, upgraded to an in-memory + on-disk memo).

    Facts that depend only on a routine's body — static size, the set
    of blocks on CFG cycles — are keyed by
    [Ucode.Hash.routine_body_hash] and reused across passes, across
    clones, and across `hloc` runs.  Cached values are identical to
    what recomputation would produce, so caching never perturbs
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
  entries : int;   (** resident entries, including loaded ones *)
  loaded : int;    (** entries brought in by [load] *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** Drop all entries and zero the statistics. *)
val clear : unit -> unit

(** Merge a cache file into the store.  Returns the number of entries
    added; a missing file is [Ok 0].  Entries already resident win.
    The file uses the shared versioned/checksummed {!Store} container;
    any header or checksum problem is an [Error], never an
    exception. *)
val load : string -> (int, string) result

(** Write the store to [path] (sorted by hash — the file contents are
    a deterministic function of the store). *)
val save : string -> (unit, string) result
