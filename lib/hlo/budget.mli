(** The compile-time growth budget of Figure 2: the optimizer may grow
    the quadratic cost estimate [C = sum size(R)^2] by a configured
    percentage, released in stages across passes. *)

type t = {
  base_cost : float;      (** C at the start of HLO *)
  allowance : float;      (** total extra cost permitted *)
  staging : float array;  (** cumulative fraction available per pass *)
  mutable spent : float;  (** extra cost consumed so far *)
}

val create : Config.t -> initial_cost:float -> t

(** Extra cost available during pass [pass] (0-based); passes beyond
    the staging list get the full allowance. *)
val stage_allowance : t -> pass:int -> float

val remaining : t -> pass:int -> float
val can_afford : t -> pass:int -> float -> bool
val charge : t -> float -> unit

(** Hand cost back (mid-pass shrinkage, e.g. region/demand outlining
    of a callee); [spent] is clamped at zero. *)
val credit : t -> float -> unit

(** No room left even at the final stage. *)
val exhausted : t -> bool

(** Re-anchor [spent] from a freshly measured cost — shrinkage from the
    between-pass optimizer earns budget back ("recalibrate"). *)
val recalibrate : t -> measured_cost:float -> unit
