(** The optimization pipeline.

    This is the stand-in for the paper's "aggressive, state-of-the-art
    global optimizer": the set of scalar transformations the back end
    applies to each routine.  HLO runs it (a) once after input to
    shrink the IR, (b) on every routine it inlines into or clones (the
    "optimize and recalibrate" steps of Figures 3 and 4), and (c) the
    back end conceptually runs it again before code generation.

    Each pass returns a changed flag; the pipeline iterates until quiet
    or until the round bound is hit. *)

module U = Ucode.Types

let max_rounds = 4

(** Optimize one routine.  [removable] enables deletion of unused calls
    proven harmless by {!Ipa}; [arity_of] enables devirtualization of
    indirect calls whose target and arity are provably known. *)
let optimize_routine ~removable ~arity_of (r : U.routine) : U.routine =
  (* Convergence: a quiet round (no pass flagged a change) stops with no
     structural comparison at all.  A noisy round still compares input
     to output, because two passes can oscillate — one rewrites, a later
     one undoes it — leaving the round a structural no-op while flags
     fired; without the compare such a routine burns every remaining
     round.  Net: at most one compare per *changed* round, none on the
     final quiet round. *)
  let any = ref false in
  let run_pass f r =
    let r', changed = f r in
    if changed then any := true;
    r'
  in
  let round r =
    r
    |> run_pass Simplify.run
    |> run_pass (Constprop.run ~arity_of)
    |> run_pass Copyprop.run
    |> run_pass Licm.run
    |> run_pass Strength.run
    |> run_pass Cse.run
    |> run_pass (Dce.run ~removable)
    |> run_pass Simplify.run
  in
  let rec loop r n =
    if n = 0 then r
    else begin
      any := false;
      let r' = round r in
      if !any && r' <> r then loop r' (n - 1) else r'
    end
  in
  loop r max_rounds

(** Optimize every routine of a program.  Computes the deletable-call
    set once (the "limited interprocedural analysis" of the paper) and
    feeds it to per-routine DCE. *)
let optimize_program (p : U.program) : U.program =
  Telemetry.Collector.with_span "opt.program" @@ fun () ->
  if Telemetry.Collector.enabled () then begin
    let n = List.length p.U.p_routines in
    Telemetry.Collector.annotate "routines" (Telemetry.Event.Int n);
    Telemetry.Collector.count "opt.routines_optimized" n
  end;
  let deletable = Ipa.deletable_routines p in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = U.arity_in_program p n in
  { p with
    U.p_routines =
      List.map
        (fun (r : U.routine) ->
          Telemetry.Collector.with_span "opt.routine" @@ fun () ->
          if Telemetry.Collector.enabled () then
            Telemetry.Collector.annotate "name"
              (Telemetry.Event.Str r.U.r_name);
          optimize_routine ~removable ~arity_of r)
        p.U.p_routines }

(** Optimize only the named routines (used by HLO after a pass touched
    a subset of the program).  Untouched routines are passed through. *)
let optimize_selected (p : U.program) names : U.program =
  Telemetry.Collector.with_span "opt.selected" @@ fun () ->
  if Telemetry.Collector.enabled () then begin
    let n = List.length names in
    Telemetry.Collector.annotate "routines" (Telemetry.Event.Int n);
    Telemetry.Collector.count "opt.routines_optimized" n
  end;
  let deletable = Ipa.deletable_routines p in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = U.arity_in_program p n in
  let target = U.String_set.of_list names in
  { p with
    U.p_routines =
      List.map
        (fun (r : U.routine) ->
          if U.String_set.mem r.U.r_name target then begin
            Telemetry.Collector.with_span "opt.routine" @@ fun () ->
            if Telemetry.Collector.enabled () then
              Telemetry.Collector.annotate "name"
                (Telemetry.Event.Str r.U.r_name);
            optimize_routine ~removable ~arity_of r
          end
          else r)
        p.U.p_routines }
