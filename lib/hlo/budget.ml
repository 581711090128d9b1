(** The compile-time growth budget (Figure 2 of the paper).

    The current compile cost of the program is estimated as
    [C = Σ size(R)²].  The budget allows the optimizer to grow that
    estimate by [budget_percent] percent; the allowance is *staged*
    over the passes so the first pass cannot consume everything —
    later passes get to react to what earlier inlining and cloning
    exposed. *)

type t = {
  base_cost : float;          (** C at the start of HLO *)
  allowance : float;          (** total extra cost permitted *)
  staging : float array;      (** cumulative fraction available per pass *)
  mutable spent : float;      (** extra cost consumed so far *)
}

let create (config : Config.t) ~initial_cost =
  (match Policy.check_staging config.Config.staging with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Budget.create: " ^ msg));
  { base_cost = initial_cost;
    allowance = initial_cost *. config.Config.budget_percent /. 100.0;
    staging = Array.of_list config.Config.staging; spent = 0.0 }

(** Extra cost available during [pass] (0-based).  Passes beyond the
    staging list get the full allowance. *)
let stage_allowance t ~pass =
  let i = min pass (Array.length t.staging - 1) in
  t.allowance *. t.staging.(i)

let remaining t ~pass = stage_allowance t ~pass -. t.spent

let can_afford t ~pass delta = t.spent +. delta <= stage_allowance t ~pass

let charge t delta = t.spent <- t.spent +. delta

(** Hand back [delta] cost units — outlining a callee mid-pass shrinks
    the program, and the saving belongs to the budget just like
    recalibration shrinkage does.  Never drives [spent] below zero. *)
let credit t delta = t.spent <- Float.max 0.0 (t.spent -. delta)

(** True when even the final stage has no room left. *)
let exhausted t = t.spent >= t.allowance

(** Re-anchor [spent] from a freshly measured program cost.  Called
    after the between-pass optimizer runs: shrinking a routine gives
    budget back ("recalibrate"). *)
let recalibrate t ~measured_cost =
  t.spent <- Float.max 0.0 (measured_cost -. t.base_cost)
