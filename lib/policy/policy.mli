(** First-class HLO policies.

    Every tunable knob of the HLO driver — the compile-time growth
    budget, its staging schedule, the pass limit, the inliner's
    cold-site penalty and indirect-call bonus, the outliner's region
    thresholds, and the order of the clean/outline/clone/inline/prune
    stages inside each pass — reified as one value.  The 1997 paper
    hand-set all of these; {!default} records exactly those constants,
    and [bin/hlo_tune] searches the space for better ones.

    A policy is plain data: it never references the program being
    compiled, so it can be persisted (versioned, checksummed, over
    {!Store}), hashed into cache keys, diffed, and shipped between
    machines.  [Hlo.Config.of_policy] is the one place a policy meets
    the compiler. *)

(** One stage of the per-pass schedule.  The driver interprets the
    policy's [stages] list in order, once per pass:
    - [Clone]: the cloning pass (gated by [enable_cloning]);
    - [Inline]: the inlining pass (gated by [enable_inlining]);
    - [Prune]: delete unreachable routines;
    - [Clean]: re-run the scalar optimizer on routines touched since
      the pass started (gated by [optimize_between_passes]);
    - [Outline]: extract cold regions (needs profile data). *)
type stage = Clean | Outline | Clone | Inline | Prune

val stage_name : stage -> string

(** How the inliner treats a callee whose whole body busts the budget:
    - [Whole]: the paper's behaviour — reject the site (the callee is
      inlined entirely or not at all);
    - [Region]: eager pre-pass — before ranking, outline the cold
      regions of every over-budget callee (blocks below
      [region_cold_fraction] of the routine's hottest block) into
      synthetic residue routines, then score and inline the hot
      residue;
    - [Demand]: the same outlining, driven lazily from the ranked
      worklist — a callee is only split at the moment its whole body
      fails the budget check. *)
type inline_mode = Whole | Region | Demand

val inline_mode_name : inline_mode -> string
val inline_mode_of_name : string -> (inline_mode, string) result

type t = {
  budget_percent : float;      (** allowed compile-cost increase *)
  staging : float list;        (** cumulative budget fraction per pass *)
  pass_limit : int;            (** maximum passes *)
  cold_site_penalty : float;   (** benefit multiplier for cold sites *)
  indirect_bonus : float;      (** benefit multiplier for devirtualizing clones *)
  outline : bool;              (** outline cold regions before pass 0 *)
  outline_cold_fraction : float;
  outline_min_instructions : int;
  outline_max_inputs : int;
  inline_mode : inline_mode;   (** whole / region / demand *)
  region_cold_fraction : float;
      (** region/demand coldness cut, relative to the hottest block *)
  stages : stage list;         (** per-pass schedule, in order *)
}

(** The paper's hand-set 1997 constants, including the fixed
    clone/inline/prune/clean/prune pass schedule the old driver
    hard-coded. *)
val default : t

(** {2 Validation} *)

(** Check a staging schedule: nonempty, every fraction in [0, 1],
    nondecreasing, ending at 1.0.  The error names the offending
    value. *)
val check_staging : float list -> (unit, string) result

(** Full structural validation: staging as {!check_staging}, all
    numeric knobs finite and inside their documented ranges, stage
    list nonempty, at most 8 long, and containing at least
    one transforming stage ([Clone] or [Inline]). *)
val validate : t -> (unit, string) result

(** {2 Canonical text codec}

    One [key value] line per knob, fixed key order, floats printed so
    they parse back to the same bits.  [of_string] is strict: every
    key at most once, nothing unknown, and the decoded policy must
    pass {!validate}.  The only optional keys are [inline_mode] and
    [region_cold_fraction] (they postdate the format; older files load
    with the defaults) — everything else must be present. *)

val to_string : t -> string
val of_string : string -> (t, string) result

(** MD5 of the canonical text — the policy's identity in cache keys
    (the daemon's artifact store) and reports. *)
val hash : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Persistence}

    Policies on disk live in the shared {!Store} container (magic
    ["hlo-policy"]), so loading is fail-safe: missing file, foreign
    file, version skew and corruption all come back as values. *)

(** [Ok None] when [path] does not exist.  A file that is not a store
    container is accepted when its contents are valid canonical policy
    text ([hloc --dump-policy] output, or hand-written), so both forms
    load interchangeably. *)
val load : path:string -> (t option, string) result

val save : path:string -> t -> (unit, string) result

module Pareto : sig
  (** Multi-objective bookkeeping for the policy tuner.

      Three minimized objectives per candidate: simulated run cycles,
      final code size (instructions), and compile cost spent (the Σ size²
      units the budget is denominated in). *)

  type point = {
    cycles : float;
    size : float;
    cost : float;
  }

  (** [dominates a b] — [a] is no worse on every objective and strictly
      better on at least one. *)
  val dominates : point -> point -> bool

  (** Non-dominated subset, input order preserved.  Exact duplicates of
      an earlier point are dropped, so a deterministic input list gives
      a deterministic front. *)
  val front : ('a * point) list -> ('a * point) list
end

module Space : sig
  (** The typed search space over {!t}.

      Each knob carries its sampling range here, in one place, so the
      random sampler, the local-move mutator, and the documentation
      cannot drift apart.  Both entry points draw from a caller-owned
      [Random.State.t] and draw a {e fixed} number-independent sequence
      per call, so a search seeded identically replays identically —
      the tuner's determinism contract hangs off this module. *)

  (** One knob and its range, human-readable — the rows of the search
      space table in docs/tuning.md. *)
  type param = {
    pm_name : string;
    pm_range : string;
    pm_kind : string;  (** "float", "int", "bool", "schedule" *)
  }

  val params : param list

  (** A uniform-ish random policy; always passes {!validate}. *)
  val sample : Random.State.t -> t

  (** One local move: pick one knob and perturb it (budget scaled,
      staging cut nudged, a stage swapped/inserted/dropped, ...).  The
      result always validates and always differs from the input in at
      most one knob. *)
  val mutate : Random.State.t -> t -> t
end
