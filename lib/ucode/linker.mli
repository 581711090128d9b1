(** Linking separately produced modules into one program — the paper's
    *isom* path that makes cross-module optimization possible.

    Mangles module-local ([static]) names to [module$name], resolves
    every direct reference (same module first, then exports, then
    builtins), and renumbers call sites to be program-unique. *)

type module_ir = {
  m_name : string;
  m_routines : Types.routine list;
  m_globals : Types.global list;
}

exception Link_error of string

(** How the linker renamed each module's pieces, for consumers that
    must translate module-local identifiers into whole-program ones —
    notably the isom layer, which stores per-module profile fragments
    keyed by module-local call-site ids and rebases them through
    [lm_sites] when the modules are relinked. *)
type maps = {
  lm_routines : (string * string) list Types.String_map.t;
      (** module -> (source-level name, final linked name), in module
          order *)
  lm_sites : (Types.site * Types.site) list Types.String_map.t;
      (** module -> (module-local site id, program-unique site id) *)
}

(** [link ~main modules] produces a validated whole program.  [main]
    (default ["main"]) must be exported by some module.  Raises
    {!Link_error} on duplicate exports, duplicate in-module
    definitions, unresolved references or a missing entry point; every
    message names the offending module(s) and symbol. *)
val link : ?main:string -> module_ir list -> Types.program

(** [link] plus the renaming maps it applied. *)
val link_with_maps : ?main:string -> module_ir list -> Types.program * maps
