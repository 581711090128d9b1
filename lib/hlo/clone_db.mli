(** Cross-request clone-template cache.

    Materializing a clone ({!Clone_spec.make_clone}) is a full body
    copy.  Its output is a deterministic function of the callee's body,
    the spec, the clone's name and the sequence of fresh site ids — so
    the body copy can be cached in *normalized* form (name blanked,
    sites renumbered 0..k-1 in draw order) and re-instantiated under
    any name and any fresh-site sequence with a single renaming walk.

    The store is process-global and mutex-guarded, so a long-lived
    server ([hlod]) shares materialization work across concurrent
    compile requests.  Instantiation is bit-identical to direct
    materialization (a qcheck property in [test_hlo] pins this down),
    so caching never perturbs results. *)

(** Drop-in replacement for {!Clone_spec.make_clone}: consult the
    template cache keyed by the callee's identity-complete body key and
    the spec, materializing (and caching) on miss.  Falls back to the
    uncached path while a chaos bug is armed — the armed mutation must
    reach every materialization, not just cache misses. *)
val make_clone :
  callee:Ucode.Types.routine ->
  clone_name:string ->
  fresh_site:(unit -> Ucode.Types.site) ->
  Clone_spec.t ->
  Ucode.Types.routine * (Ucode.Types.site * Ucode.Types.site) list

type stats = {
  hits : int;     (** instantiations served from a cached template *)
  misses : int;   (** materializations that built a new template *)
  entries : int;  (** resident templates *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** Drop all templates and zero the statistics. *)
val clear : unit -> unit
