(** Deterministic synthetic large programs for the paper's §3.5 scaling
    claim: layered acyclic call graphs over [modules] modules, a mix of
    exported and static routines, constant-argument sites, per-module
    state, and a [main] that drives every module from a hot loop.
    Same seed, same program — runs are reproducible. *)

(** Generate the program's sources. *)
val generate : ?seed:int -> modules:int -> unit -> Minic.Compile.source list

(** Generate, compile and link. *)
val compile : ?seed:int -> modules:int -> unit -> Ucode.Types.program
