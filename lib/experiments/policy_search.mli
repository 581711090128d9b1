(** Multi-objective policy search (the [hlo_tune] engine).

    The 1997 paper hand-set every HLO knob; this experiment searches
    {!Policy.Space} for better settings.  Candidates are evaluated on
    whole workload classes (the SPEC92-style and SPEC95-style halves of
    the suite), scored on three minimized objectives — simulated run
    cycles, final code size, and compile cost — and {e oracle-gated}: a
    candidate whose transformed program the semantic oracle cannot
    prove behavior-preserving is rejected outright, whatever its
    numbers say.  The survivors form a Pareto front per class; the
    winner is the front member with the fewest cycles among those no
    larger than the default's code size.

    Determinism contract: same [seed] (and same parameters) ⇒ same
    candidates, same front, same winner.  All random draws happen
    sequentially before each parallel evaluation batch, and the
    parallel map preserves order, so the degree of parallelism cannot
    change the result. *)

(** The three objectives measured on one benchmark (or summed over a
    class). *)
type objectives = {
  o_cycles : float;  (** simulated run cycles *)
  o_size : float;  (** final program size, instructions *)
  o_cost : float;  (** compile cost spent, Σ size² units *)
}

(** {!Pipeline.prepare}: the per-benchmark work every candidate
    shares. *)
val prepare :
  ?input:Workloads.Suite.input -> Workloads.Suite.benchmark -> Pipeline.ctx

(** Run HLO under [policy] (optionally with a metamorphically mutated
    profile) and measure.  [Error reason] when the driver traps, the
    semantic oracle refuses the transformed program, or the simulator
    output diverges from the oracle's observation — the candidate is
    rejected, never scored. *)
val evaluate :
  ?mutation:Oracle.profile_mutation ->
  Pipeline.ctx ->
  Policy.t ->
  (objectives, string) result

type class_result = {
  cr_suite : Workloads.Suite.spec_suite;
  cr_default : Policy.Pareto.point;
  cr_front : (Policy.t * Policy.Pareto.point) list;
      (** non-dominated candidates, discovery order *)
  cr_winner : Policy.t;
  cr_winner_point : Policy.Pareto.point;
  cr_candidates : int;  (** distinct candidates evaluated *)
  cr_rejected : int;  (** rejected by the oracle gate (or a trap) *)
}

type bench_row = {
  br_name : string;
  br_suite : Workloads.Suite.spec_suite;
  br_default : objectives;
  br_tuned : objectives;  (** under the class winner *)
  br_best : objectives;
      (** under the best oracle-clean candidate the search found for
          {e this} benchmark: fewest cycles among those no worse than
          the default on either axis here (the default itself always
          qualifies, so "best" never loses to it) *)
  br_best_policy : Policy.t;
}

type t = {
  t_seed : int;
  t_input : Workloads.Suite.input;
  t_classes : class_result list;
  t_rows : bench_row list;
  t_stale : (Workloads.Suite.spec_suite * float) list;
      (** stale-profile robustness: geomean over [Stale 1..k] mutations
          and class benchmarks of default-cycles / tuned-cycles — above
          1.0 the tuned policy still beats the default on profiles that
          no longer match reality *)
}

(** [run ()] searches each class: the default policy plus [samples]
    random policies, then [rounds] rounds of [mutations] local moves
    per front member.  [benchmarks] restricts the suite by name
    (smoke tests); [stale_rounds] is the number of [Stale k] profile
    mutations in the robustness score (0 skips it). *)
val run :
  ?seed:int ->
  ?samples:int ->
  ?rounds:int ->
  ?mutations:int ->
  ?stale_rounds:int ->
  ?input:Workloads.Suite.input ->
  ?benchmarks:string list ->
  unit ->
  t

val to_table : t -> string

(** The [BENCH_pr9.json] payload: winners (canonical text + hash),
    fronts, per-benchmark tuned-vs-default numbers, robustness. *)
val to_json : t -> Telemetry.Json.t
