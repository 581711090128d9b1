(** An order-preserving parallel map for independent, coarse work items
    — today, candidate policies in [Experiments.Policy_search].

    The compiler itself is sequential: nothing under [lib/minic],
    [lib/opt], [lib/hlo] or [lib/isom] maps through this module.

    [map_list f xs] returns exactly what [List.map f xs] returns: every
    result lands at its input's index whatever order the items ran in,
    and when items raise, the failure with the lowest index is the one
    re-raised.  At one job it {e is} [List.map]. *)

(** Set the degree used by {!map_list}.  Values below 1 mean 1; the
    default is 1. *)
val set_jobs : int -> unit

val get_jobs : unit -> int

(** Spawns [min jobs n - 1] domains for this call alone; they and the
    caller take items through one shared counter, and all are joined
    before it returns. *)
val map_list : ('a -> 'b) -> 'a list -> 'b list
