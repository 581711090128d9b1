(** Content hashing of routine bodies.

    The hash covers what a routine computes — params, attributes,
    blocks, instructions, terminators — and excludes its identity:
    name, module, origin, linkage, and call-site ids.  Clones therefore
    hash like their originals, and hashes are stable across `hloc`
    runs even though site ids are assigned in program order.  Computed
    in one walk over the block list.  The digest is persisted (isom
    files) and keys the clone database, so its input bytes are a file
    format: see the layout in hash.ml. *)

type t = string
(** An MD5 hex digest (32 lowercase hex characters). *)

val routine_body_hash : Types.routine -> t

(** Digest of arbitrary bytes in the same hex format — the
    source-content and export-environment hashes of the isom layer. *)
val string_hash : string -> t

val pp : Format.formatter -> t -> unit
