(** The separate-compilation build driver.

    Three entry points, layered:

    - {!compile_inputs} — compile a mixed batch of sources and
      already-built isoms into a full set of isoms.  Every source is
      checked and lowered against the exports of *everything else* in
      the batch (the same {!Minic.Compile.ext_for} rule the
      whole-program path uses), so compiling the same modules
      separately or together yields bit-identical IR by construction.
    - {!compile_incremental} — same, but consulting a build manifest
      in [dir]: modules whose source hash and export-environment hash
      are unchanged are loaded from their isom instead of recompiled.
      Invalidation is fail-safe (missing/corrupt isom or manifest just
      means "dirty") and single-pass: a module's exports depend only
      on its own source, so recompiling a dirty module never
      invalidates anyone else's reuse decision.
    - {!link} — merge a set of isoms into one program, with the
      renaming maps and (when every isom carries one) a merged profile
      seed.

    Telemetry: span [isom.plan] around invalidation, counters
    [isom.manifest.hit]/[isom.manifest.miss], [isom.recompile.<reason>]
    with reasons [new], [source-changed], [unreadable], [ext-changed],
    [isom.manifest.corrupt], and [isom.profile.fragments_used]. *)

type input =
  | Src of Minic.Compile.source        (** compile from source *)
  | Parsed of Minic.Compile.source * Minic.Ast.unit_
      (** already parsed (the incremental planner parses dirty modules
          to learn their exports; no point parsing twice) *)
  | Obj of File.t                      (** already compiled *)

(** Compile every [Src]/[Parsed] input against the exports of the whole
    batch; [Obj] inputs pass through untouched.  Returns one isom per
    input, in order, plus all diagnostics.  Raises
    {!Minic.Diag.Compile_error} on errors. *)
val compile_inputs : input list -> File.t list * Minic.Diag.t list

type stats = {
  s_reused : string list;                 (** module names, in order *)
  s_recompiled : (string * string) list;  (** module name, reason *)
}

(** Incremental build of [sources] under [dir] (created if missing):
    plan against [dir]'s manifest, recompile only dirty modules, write
    their isoms and the updated manifest, and return the full isom set
    in source order.  Raises {!Minic.Diag.Compile_error} on compile
    errors and [Sys_error] if an isom or the manifest cannot be
    written. *)
val compile_incremental :
  dir:string ->
  Minic.Compile.source list ->
  File.t list * Minic.Diag.t list * stats

(** Link isoms into a program.  Verifies first that every isom was
    compiled against the exports the batch actually provides (raising
    {!Ucode.Linker.Link_error} naming the stale module otherwise),
    then links, then merges profile fragments — but only when *every*
    isom carries a non-empty fragment, so a partially trained build
    falls back to [None] (caller retrains) rather than optimizing from
    a partial profile. *)
val link :
  ?main:string ->
  File.t list ->
  Ucode.Types.program * Ucode.Linker.maps * Ucode.Profile.t option

(** [write_fragments paired ~maps ~profile] slices [profile] per
    module and rewrites each isom at its path with its fragment (code
    and invalidation keys unchanged).  First write error wins. *)
val write_fragments :
  (string * File.t) list ->
  maps:Ucode.Linker.maps ->
  profile:Ucode.Profile.t ->
  (unit, string) result
