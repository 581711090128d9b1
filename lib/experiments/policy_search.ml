(** Multi-objective policy search.  See the interface for the
    contract; the shape of the search is:

    per class:  default + N samples ──eval──▶ front ──mutate──▶ eval ─▶ front ─▶ ...
                       (all draws sequential, all evals parallel)

    Every evaluation is oracle-gated: the transformed program must be
    provably behavior-equal to the original before its numbers count.
    The search never trusts a fast-but-wrong candidate. *)

type objectives = {
  o_cycles : float;
  o_size : float;
  o_cost : float;
}

let zero = { o_cycles = 0.0; o_size = 0.0; o_cost = 0.0 }

let add a b =
  { o_cycles = a.o_cycles +. b.o_cycles; o_size = a.o_size +. b.o_size;
    o_cost = a.o_cost +. b.o_cost }

let point_of (o : objectives) : Policy.Pareto.point =
  { Policy.Pareto.cycles = o.o_cycles; size = o.o_size; cost = o.o_cost }

(* ------------------------------------------------------------------ *)
(* Per-benchmark evaluation.                                           *)

let prepare = Pipeline.prepare

let evaluate ?(mutation = Oracle.Keep) (cx : Pipeline.ctx) (policy : Policy.t) :
    (objectives, string) result =
  let config = Hlo.Config.of_policy policy in
  let profile = Oracle.mutate_profile mutation cx.Pipeline.profile in
  match Hlo.Driver.run ~config ~profile cx.Pipeline.program with
  | exception e -> Error ("driver: " ^ Printexc.to_string e)
  | result -> (
    let optimized = result.Hlo.Driver.program in
    let post = Oracle.observe optimized in
    match Oracle.compare_outcomes ~pre:cx.Pipeline.reference ~post with
    | Some (cls, detail) -> Error (Printf.sprintf "oracle:%s (%s)" cls detail)
    | None -> (
      let sim = Machine.Sim.run_program optimized in
      match post with
      | Oracle.Finished ob
        when not (String.equal ob.Oracle.ob_output sim.Machine.Sim.output)
        ->
        Error "sim: output diverges from the interpreter's"
      | _ ->
        Ok
          { o_cycles =
              float_of_int sim.Machine.Sim.metrics.Machine.Metrics.cycles;
            o_size = float_of_int (Ucode.Size.program_size optimized);
            o_cost = result.Hlo.Driver.report.Hlo.Report.cost_after }))

(* Evaluate a candidate on every benchmark of a class; the first
   rejection rejects the candidate.  Ok carries the per-benchmark
   breakdown, aligned with [ctxs]. *)
let eval_class ctxs policy : (objectives list, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | cx :: rest -> (
      match evaluate cx policy with
      | Ok o -> go (o :: acc) rest
      | Error e -> Error (cx.Pipeline.name ^ ": " ^ e))
  in
  go [] ctxs

let class_sum breakdown = List.fold_left add zero breakdown

(* ------------------------------------------------------------------ *)
(* The search.                                                         *)

type class_result = {
  cr_suite : Workloads.Suite.spec_suite;
  cr_default : Policy.Pareto.point;
  cr_front : (Policy.t * Policy.Pareto.point) list;
  cr_winner : Policy.t;
  cr_winner_point : Policy.Pareto.point;
  cr_candidates : int;
  cr_rejected : int;
}

(* [init_seq n f] — like [List.init] but with a guaranteed left-to-right
   evaluation order, so RNG draws replay identically everywhere. *)
let init_seq n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

(* One surviving candidate: its policy, class-summed point, and the
   per-benchmark breakdown behind it. *)
type candidate = {
  cd_policy : Policy.t;
  cd_point : Policy.Pareto.point;
  cd_breakdown : objectives list;
}

let search_class ~rng ~samples ~rounds ~mutations suite ctxs :
    class_result * candidate list =
  let seen = Hashtbl.create 64 in
  let clean = ref [] (* candidates, newest first *) in
  let rejected = ref 0 in
  let evaluated = ref 0 in
  let eval_batch policies =
    let fresh =
      List.filter
        (fun p ->
          let key = Policy.to_string p in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        policies
    in
    let results = Parallel.Pool.map_list (eval_class ctxs) fresh in
    List.iter2
      (fun p r ->
        incr evaluated;
        match r with
        | Ok breakdown ->
          clean :=
            { cd_policy = p; cd_point = point_of (class_sum breakdown);
              cd_breakdown = breakdown }
            :: !clean
        | Error _ -> incr rejected)
      fresh results
  in
  let pairs () = List.map (fun c -> (c.cd_policy, c.cd_point)) (List.rev !clean) in
  eval_batch (Policy.default :: init_seq samples (fun _ -> Policy.Space.sample rng));
  let default_point =
    match
      List.find_opt (fun c -> Policy.equal c.cd_policy Policy.default) !clean
    with
    | Some c -> c.cd_point
    | None ->
      (* The default policy must evaluate cleanly — it is the shipped
         compiler.  A failure here is a real bug, not a candidate to
         skip. *)
      failwith
        (Printf.sprintf "policy search: default policy rejected on %s"
           (Workloads.Suite.suite_name suite))
  in
  for _ = 1 to rounds do
    let front = Policy.Pareto.front (pairs ()) in
    let moves =
      List.concat_map
        (fun (p, _) -> init_seq mutations (fun _ -> Policy.Space.mutate rng p))
        front
    in
    eval_batch moves
  done;
  let front = Policy.Pareto.front (pairs ()) in
  (* Winner: fewest cycles among candidates no larger than the default;
     ties break toward smaller size, then lower cost, then the
     lexicographically first policy text — total, so deterministic. *)
  let winner, winner_point =
    let eligible =
      List.filter
        (fun c ->
          c.cd_point.Policy.Pareto.size <= default_point.Policy.Pareto.size
          && c.cd_point.Policy.Pareto.cycles
             <= default_point.Policy.Pareto.cycles)
        (List.rev !clean)
    in
    let keyed =
      List.map
        (fun c ->
          ( ( c.cd_point.Policy.Pareto.cycles, c.cd_point.Policy.Pareto.size,
              c.cd_point.Policy.Pareto.cost, Policy.to_string c.cd_policy ),
            (c.cd_policy, c.cd_point) ))
        eligible
    in
    match List.sort (fun (a, _) (b, _) -> compare a b) keyed with
    | (_, best) :: _ -> best
    | [] -> (Policy.default, default_point)
  in
  ( { cr_suite = suite; cr_default = default_point; cr_front = front;
      cr_winner = winner; cr_winner_point = winner_point;
      cr_candidates = !evaluated; cr_rejected = !rejected },
    List.rev !clean )

(* ------------------------------------------------------------------ *)

type bench_row = {
  br_name : string;
  br_suite : Workloads.Suite.spec_suite;
  br_default : objectives;
  br_tuned : objectives;
  br_best : objectives;
  br_best_policy : Policy.t;
}

type t = {
  t_seed : int;
  t_input : Workloads.Suite.input;
  t_classes : class_result list;
  t_rows : bench_row list;
  t_stale : (Workloads.Suite.spec_suite * float) list;
}

(* Stale-profile robustness: rerun default and winner under [Stale k]
   profiles and geomean default/tuned cycle ratios.  A tuned policy
   that only wins on the exact training profile scores below 1. *)
let stale_score ~stale_rounds ctxs winner =
  let ratios =
    List.concat_map
      (fun cx ->
        init_seq stale_rounds (fun i ->
            let mutation = Oracle.Stale (i + 1) in
            match
              ( evaluate ~mutation cx Policy.default,
                evaluate ~mutation cx winner )
            with
            | Ok d, Ok w -> d.o_cycles /. w.o_cycles
            | Ok _, Error _ ->
              0.0 (* tuned breaks under a stale profile: worst score *)
            | Error _, _ -> 1.0 (* default itself broke: uninformative *)))
      ctxs
  in
  Tables.geomean ratios

let run ?(seed = 1997) ?(samples = 16) ?(rounds = 3) ?(mutations = 3)
    ?(stale_rounds = 3) ?(input = Workloads.Suite.Ref) ?benchmarks () : t =
  let picked =
    match benchmarks with
    | None -> Workloads.Suite.all
    | Some names -> List.map Workloads.Suite.find names
  in
  let classes =
    List.filter
      (fun suite ->
        List.exists (fun b -> b.Workloads.Suite.b_suite = suite) picked)
      [ Workloads.Suite.Spec92; Workloads.Suite.Spec95 ]
  in
  let per_class =
    List.map
      (fun suite ->
        let bs =
          List.filter (fun b -> b.Workloads.Suite.b_suite = suite) picked
        in
        let ctxs = Parallel.Pool.map_list (prepare ~input) bs in
        (suite, ctxs))
      classes
  in
  let results =
    List.mapi
      (fun i (suite, ctxs) ->
        (* One independent stream per class, derived from the seed —
           classes can be added without reshuffling earlier ones. *)
        let rng = Random.State.make [| seed; i |] in
        let cr, clean =
          search_class ~rng ~samples ~rounds ~mutations suite ctxs
        in
        (suite, ctxs, cr, clean))
      per_class
  in
  let rows =
    List.concat_map
      (fun (suite, ctxs, cr, clean) ->
        let breakdown_of p =
          match
            List.find_opt (fun c -> Policy.equal c.cd_policy p) clean
          with
          | Some c -> c.cd_breakdown
          | None -> failwith "policy search: winner not among candidates"
        in
        let default_bd = breakdown_of Policy.default in
        let tuned_bd = breakdown_of cr.cr_winner in
        List.mapi
          (fun i cx ->
            let d = List.nth default_bd i in
            (* Best oracle-clean candidate for THIS benchmark: fewest
               cycles among those no worse than the default on either
               axis here.  The default itself always qualifies, so the
               fallback is unreachable on a nonempty clean list. *)
            let best_o, best_p =
              let keyed =
                List.filter_map
                  (fun c ->
                    let o = List.nth c.cd_breakdown i in
                    if o.o_cycles <= d.o_cycles && o.o_size <= d.o_size then
                      Some
                        ( ( o.o_cycles, o.o_size, o.o_cost,
                            Policy.to_string c.cd_policy ),
                          (o, c.cd_policy) )
                    else None)
                  clean
              in
              match List.sort (fun (a, _) (b, _) -> compare a b) keyed with
              | (_, best) :: _ -> best
              | [] -> (d, Policy.default)
            in
            { br_name = cx.Pipeline.name; br_suite = suite;
              br_default = d; br_tuned = List.nth tuned_bd i;
              br_best = best_o; br_best_policy = best_p })
          ctxs)
      results
  in
  let stale =
    if stale_rounds = 0 then []
    else
      List.map
        (fun (suite, ctxs, cr, _) ->
          (suite, stale_score ~stale_rounds ctxs cr.cr_winner))
        results
  in
  { t_seed = seed; t_input = input;
    t_classes = List.map (fun (_, _, cr, _) -> cr) results; t_rows = rows;
    t_stale = stale }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let brief (p : Policy.t) =
  Printf.sprintf "budget=%g passes=%d stages=%s%s"
    p.Policy.budget_percent p.Policy.pass_limit
    (String.concat ","
       (List.map Policy.stage_name p.Policy.stages))
    (if p.Policy.outline then " outline" else "")

let to_table (t : t) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun cr ->
      Buffer.add_string buf
        (Printf.sprintf
           "-- %s Pareto front (seed %d, %d candidates, %d rejected) --\n"
           (Workloads.Suite.suite_name cr.cr_suite)
           t.t_seed cr.cr_candidates cr.cr_rejected);
      Buffer.add_string buf
        (Tables.render
           ~aligns:[ Tables.Left ]
           ~headers:[ "policy"; "cycles"; "size"; "cost" ]
           (List.map
              (fun ((p, pt) : _ * Policy.Pareto.point) ->
                [ (let name =
                     if Policy.equal p Policy.default then "1997 default"
                     else brief p
                   in
                   if Policy.equal p cr.cr_winner then "* " ^ name else name);
                  Printf.sprintf "%.0f" pt.Policy.Pareto.cycles;
                  Printf.sprintf "%.0f" pt.Policy.Pareto.size;
                  Printf.sprintf "%.0f" pt.Policy.Pareto.cost ])
              cr.cr_front));
      Buffer.add_char buf '\n')
    t.t_classes;
  Buffer.add_string buf
    "-- tuned (class winner) and best-found vs default (per benchmark) --\n";
  Buffer.add_string buf
    (Tables.render
       ~aligns:[ Tables.Left ]
       ~headers:
         [ "benchmark"; "cycles"; "tuned"; "ratio"; "size"; "tuned"; "ratio";
           "best-cyc"; "best-size" ]
       (List.map
          (fun r ->
            [ r.br_name;
              Printf.sprintf "%.0f" r.br_default.o_cycles;
              Printf.sprintf "%.0f" r.br_tuned.o_cycles;
              Tables.f3 (r.br_tuned.o_cycles /. r.br_default.o_cycles);
              Printf.sprintf "%.0f" r.br_default.o_size;
              Printf.sprintf "%.0f" r.br_tuned.o_size;
              Tables.f3 (r.br_tuned.o_size /. r.br_default.o_size);
              Tables.f3 (r.br_best.o_cycles /. r.br_default.o_cycles);
              Tables.f3 (r.br_best.o_size /. r.br_default.o_size) ])
          t.t_rows));
  List.iter
    (fun (suite, score) ->
      Buffer.add_string buf
        (Printf.sprintf "stale-profile robustness (%s): %s\n"
           (Workloads.Suite.suite_name suite)
           (Tables.f3 score)))
    t.t_stale;
  Buffer.contents buf

module J = Telemetry.Json

let json_of_objectives (o : objectives) =
  J.Assoc
    [ ("cycles", J.Float o.o_cycles); ("size", J.Float o.o_size);
      ("cost", J.Float o.o_cost) ]

let json_of_point (pt : Policy.Pareto.point) =
  J.Assoc
    [ ("cycles", J.Float pt.Policy.Pareto.cycles);
      ("size", J.Float pt.Policy.Pareto.size);
      ("cost", J.Float pt.Policy.Pareto.cost) ]

let to_json (t : t) =
  let count pred = List.length (List.filter pred t.t_rows) in
  (* tuned: the class winner holds the line on this benchmark.
     best: some oracle-clean candidate strictly improves it. *)
  let tuned_wins =
    count (fun r ->
        r.br_tuned.o_cycles <= r.br_default.o_cycles
        && r.br_tuned.o_size <= r.br_default.o_size)
  in
  let best_wins =
    count (fun r ->
        r.br_best.o_cycles <= r.br_default.o_cycles
        && r.br_best.o_size <= r.br_default.o_size
        && (r.br_best.o_cycles < r.br_default.o_cycles
           || r.br_best.o_size < r.br_default.o_size))
  in
  J.Assoc
    [ ("experiment", J.String "hlo_tune");
      ("seed", J.Int t.t_seed);
      ( "input",
        J.String
          (match t.t_input with
          | Workloads.Suite.Train -> "train"
          | Workloads.Suite.Ref -> "ref") );
      ( "classes",
        J.List
          (List.map
             (fun cr ->
               J.Assoc
                 [ ( "class",
                     J.String (Workloads.Suite.suite_name cr.cr_suite) );
                   ("default", json_of_point cr.cr_default);
                   ("winner", json_of_point cr.cr_winner_point);
                   ("winner_policy", J.String (Policy.to_string cr.cr_winner));
                   ("winner_hash", J.String (Policy.hash cr.cr_winner));
                   ("candidates", J.Int cr.cr_candidates);
                   ("rejected", J.Int cr.cr_rejected);
                   ( "front",
                     J.List
                       (List.map
                          (fun (p, pt) ->
                            J.Assoc
                              [ ("policy_hash", J.String (Policy.hash p));
                                ("point", json_of_point pt) ])
                          cr.cr_front) ) ])
             t.t_classes) );
      ( "benchmarks",
        J.List
          (List.map
             (fun r ->
               J.Assoc
                 [ ("name", J.String r.br_name);
                   ( "class",
                     J.String (Workloads.Suite.suite_name r.br_suite) );
                   ("default", json_of_objectives r.br_default);
                   ("tuned", json_of_objectives r.br_tuned);
                   ( "cycles_ratio",
                     J.Float (r.br_tuned.o_cycles /. r.br_default.o_cycles) );
                   ( "size_ratio",
                     J.Float (r.br_tuned.o_size /. r.br_default.o_size) );
                   ("best", json_of_objectives r.br_best);
                   ("best_policy", J.String (Policy.to_string r.br_best_policy));
                   ("best_policy_hash", J.String (Policy.hash r.br_best_policy));
                   ( "best_cycles_ratio",
                     J.Float (r.br_best.o_cycles /. r.br_default.o_cycles) );
                   ( "best_size_ratio",
                     J.Float (r.br_best.o_size /. r.br_default.o_size) ) ])
             t.t_rows) );
      ( "stale_robustness",
        J.Assoc
          (List.map
             (fun (suite, score) ->
               (Workloads.Suite.suite_name suite, J.Float score))
             t.t_stale) );
      ( "wins",
        J.Assoc
          [ ("tuned", J.Int tuned_wins); ("best", J.Int best_wins);
            ("total", J.Int (List.length t.t_rows)) ] ) ]
