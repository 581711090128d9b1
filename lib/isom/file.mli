(** The isom object file: one module's compiled form, on disk.

    This is the paper's central artifact — front ends serialize each
    module's unoptimized ucode to an *isom* file, and HLO reads the
    whole collection back at link time to optimize across module
    boundaries.  Ours additionally carries everything an incremental
    driver needs to decide whether the file is still valid, and a
    profile fragment so training data can ride along with the code:

    - the lowered module IR (routines, globals, module-local site ids);
    - the module's exports (name/arity/array-ness), so *other* modules
      can be compiled against this one without reading its source;
    - the source content hash and the hash of the slice of the export
      environment the module actually references (the two invalidation
      keys — see {!module_ext_hash});
    - per-routine {!Ucode.Hash.routine_body_hash} values (verified on
      load; the substrate for stale-profile matching);
    - a per-module profile-database fragment (possibly empty).

    The container (magic, version, payload checksum) is the shared
    {!Store} discipline; {!read} is fail-safe — bad magic, foreign
    version, checksum mismatch or a malformed payload come back as
    [Error], never an exception, so callers can fall back to
    recompiling from source. *)

type t = {
  i_module : Ucode.Linker.module_ir;
  i_exports : Minic.Sema.ext_env;
  i_source_hash : Ucode.Hash.t;   (** of the module's source text *)
  i_ext_hash : Ucode.Hash.t;
      (** of the slice of the export environment the module references
          ({!module_ext_hash}) *)
  i_body_hashes : (string * Ucode.Hash.t) list;
      (** routine name -> body hash, in routine order *)
  i_profile : Fragment.t;
}

val magic : string
val version : int

(** The module's name. *)
val name : t -> string

(** The conventional file name for a module's isom. *)
val file_name : string -> string

(** Build an isom for a freshly lowered module ([i_body_hashes] are
    computed here; the profile fragment defaults to empty). *)
val make :
  ?profile:Fragment.t ->
  source_hash:Ucode.Hash.t ->
  ext_hash:Ucode.Hash.t ->
  exports:Minic.Sema.ext_env ->
  Ucode.Linker.module_ir ->
  t

(** The [i_ext_hash] invalidation key: the hash of the environment
    restricted to the names the module's IR references but does not
    define, sorted by name.  Every external name the lowering consulted
    appears in the IR (as a direct callee, [Faddr] or [Gaddr]), so two
    environments with the same hash produce the same code for this
    module — and interface changes in modules it never mentions do not
    invalidate it, nor does the order modules are listed in. *)
val module_ext_hash : Ucode.Linker.module_ir -> Minic.Sema.ext_env -> Ucode.Hash.t

(** Serialize/deserialize the payload (exposed for tests; [write] and
    [read] add the {!Store} container). *)
val encode : t -> string
val decode : string -> (t, string) result

(** Write atomically via {!Store.save}. *)
val write : path:string -> t -> (unit, string) result

(** Read and verify.  [Error] on a missing or unreadable file, bad
    magic, foreign version, checksum mismatch, malformed payload, or
    stored body hashes that do not match the decoded routines. *)
val read : path:string -> (t, string) result
