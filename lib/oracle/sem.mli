(** The semantic oracle.

    One question, asked everywhere: does a transformed program have the
    same *observable behavior* as the original?  Observable behavior is
    the interpreter's view — exit value, printed output, final global
    values — plus trap behavior: a program that traps must keep
    trapping the same way, having performed the same observable effects
    up to the trap.

    Function handles are opaque per-run values (and routine names are
    renamed by cloning), so trap payloads that depend on them are
    normalized away; resource exhaustion (fuel, call depth) legitimately
    moves under transformation and is compared only coarsely.  The
    oracle assumes the interpreter's fuel is far above the program's
    expected step count — near the limit, a transformation may push a
    finishing program over it and be misreported.

    Division-by-zero and out-of-bounds traps are *erasable*: the scalar
    optimizer deliberately deletes dead divisions and loads (see
    lib/opt/ipa.ml), so a baseline run that dies of one only pins the
    transformed run's output prefix, nothing more.  Traps raised by
    calls ([abort], externals, allocation, indirect-call failures) are
    never erased and stay strictly compared.

    This module generalizes the one-off differential diffing previously
    buried in the test suites into the reusable API the qcheck
    properties, the fuzzer ([hlo_fuzz]) and future backend-vs-interp
    differential tests plug into. *)

module U := Ucode.Types

(** Observable state of one execution. *)
type observation = {
  ob_exit : int64;
  ob_output : string;
  ob_globals : (string * int64 array) list;
}

type outcome =
  | Finished of observation
  | Trapped of { kind : string; partial : observation }
      (** semantic trap, normalized kind (payloads that depend on
          per-run handles or renamable routine names are dropped) *)
  | Diverged of string
      (** resource exhaustion: ["fuel"] or ["call_depth"] *)

val outcome_to_string : outcome -> string

(** Execute under {!Interp} and classify. *)
val observe : ?config:Interp.config -> U.program -> outcome

(** [None] when the outcomes agree; otherwise [Some (cls, detail)]
    where [cls] is a stable mismatch class (used for fuzz bucketing:
    ["exit"], ["output"], ["globals:NAME"], ["trap_kind"],
    ["trap_output"], ["trap_globals:NAME"], ["erasable_trap_output"],
    ["introduced_divergence"]) and [detail] is a human-readable
    explanation.  A pre-transformation divergence agrees with anything;
    an introduced divergence does not.  A pre-transformation erasable
    trap (division by zero, out of bounds) agrees with any post outcome
    that extends its output. *)
val compare_outcomes : pre:outcome -> post:outcome -> (string * string) option

val agree : pre:outcome -> post:outcome -> bool

(** {2 Metamorphic profile perturbations}

    Profile data guides heuristics only, so any perturbation of it must
    be semantics-neutral: HLO under a mutated profile may transform
    differently, but the result must still behave like the original. *)

type profile_mutation =
  | Keep
  | Scale of float  (** uniform count scaling *)
  | Zero            (** the empty profile *)
  | Stale of int
      (** seeded pseudo-random per-routine/per-site rescaling with
          dropped indirect-target histograms — a profile from "another
          training run" that no longer matches reality *)

val mutation_to_string : profile_mutation -> string
val mutation_of_string : string -> (profile_mutation, string) result
val mutate_profile : profile_mutation -> Ucode.Profile.t -> Ucode.Profile.t

(** {2 The transformation check} *)

(** Everything that parameterizes one HLO run under test. *)
type check = {
  ck_config : Hlo.Config.t;
  ck_mutation : profile_mutation;
}

val default_check : check

type transform_result = {
  tr_driver : Hlo.Driver.result;
  tr_pre : outcome;
  tr_post : outcome;
  tr_verdict : (string * string) option;  (** as {!compare_outcomes} *)
}

(** Train (when the config wants profile data), mutate the profile, run
    {!Hlo.Driver.run}, and compare
    observable behavior before and after.  Driver crashes — including
    {!Hlo.Driver.Invalid_ir} from per-stage validation — propagate as
    exceptions for the caller to bucket. *)
val check_transform :
  ?interp_config:Interp.config -> check -> U.program -> transform_result
