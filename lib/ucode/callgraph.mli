(** Call-graph construction, strongly connected components, and the
    call-site classification of the paper's Figure 5.

    Edges are individual call *sites*, not collapsed caller/callee
    pairs: each site carries its own profile weight and calling
    context. *)

type edge = {
  e_caller : string;
  e_site : Types.site;
  e_block : Types.label;  (** caller block containing the site *)
  e_callee : Types.callee;
  e_args : Types.reg list;
  e_dst : Types.reg option;
}

type t = {
  cg_program : Types.program;
  cg_edges : edge list;  (** in program order *)
  cg_callers : edge list Types.String_map.t;
      (** callee name -> incoming edges *)
  cg_callees : edge list Types.String_map.t;
      (** caller name -> outgoing edges *)
}

val build : Types.program -> t

(** Incoming direct-call edges of a routine. *)
val incoming : t -> string -> edge list

(** Outgoing edges of a routine (direct and indirect). *)
val outgoing : t -> string -> edge list

(** [tarjan ~nodes ~succs]: strongly connected components of the graph
    reachable from [nodes] (visited in list order), bottom-up: every
    component appears after the components it reaches.  Within a
    component the root comes first.  Nodes are compared with
    structural equality and hashing. *)
val tarjan : nodes:'a list -> succs:('a -> 'a list) -> 'a list list

(** Strongly connected components of the direct-call graph, bottom-up:
    every component appears after the components it calls into. *)
val sccs : t -> string list list

(** Routine names ordered callees-first (concatenated {!sccs}). *)
val bottom_up_order : t -> string list

(** The Figure 5 categories. *)
type site_class =
  | External      (** callee not visible: builtins / library routines *)
  | Indirect_call (** callee computed at run time *)
  | Cross_module  (** direct call into another module *)
  | Within_module (** direct call within the same module *)
  | Recursive     (** direct call within the caller's SCC *)

val site_class_name : site_class -> string
val all_site_classes : site_class list

(** Histogram over all sites, in {!all_site_classes} order. *)
val classify : t -> (site_class * int) list

val total_sites : t -> int
