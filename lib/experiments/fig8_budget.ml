(** Figure 8: incremental benefit of inlines and clone replacements in
    022.li at various budget levels.

    At each budget (percent growth allowance) the compiler is run
    repeatedly, artificially stopped after k = 0, step, 2*step, ...
    operations; each stop is compiled to the machine and simulated.
    The resulting curves show run time falling as successive
    operations land, flattening once the useful ones are done — the
    validation-of-heuristics experiment of §3.4. *)

type point = {
  operations : int;    (** cap on inline + clone-replacement operations *)
  performed : int;     (** operations actually performed *)
  run_cycles : int;
}

type curve = { budget_percent : float; points : point list }

let default_budgets = [ 25.0; 100.0; 200.0; 1000.0 ]

let run_point ~(base_config : Hlo.Config.t) (ctx : Pipeline.ctx) ~budget ~cap
    : point =
  let config =
    { base_config with Hlo.Config.budget_percent = budget;
      max_operations = Some cap }
  in
  let r = Pipeline.measure ctx config in
  { operations = cap;
    performed = Hlo.Report.total_operations r.Pipeline.r_report;
    run_cycles = r.Pipeline.r_metrics.Machine.Metrics.cycles }

(** Total operations HLO would perform at [budget] with no cap. *)
let total_operations ~(base_config : Hlo.Config.t) (ctx : Pipeline.ctx) ~budget
    : int =
  let config =
    { base_config with Hlo.Config.budget_percent = budget;
      max_operations = None }
  in
  let r = Pipeline.measure ctx config in
  Hlo.Report.total_operations r.Pipeline.r_report

let run ?input ?(base_config = Hlo.Config.default)
    ?(benchmark = "022.li") ?(budgets = default_budgets) ?(points = 12) () :
    curve list =
  let ctx = Pipeline.prepare ?input (Workloads.Suite.find benchmark) in
  List.map
    (fun budget ->
      let total = total_operations ~base_config ctx ~budget in
      let step = max 1 (total / max 1 (points - 1)) in
      let rec caps k acc =
        if k >= total then List.rev (total :: acc) else caps (k + step) (k :: acc)
      in
      let caps = caps 0 [] in
      { budget_percent = budget;
        points =
          List.map (fun cap -> run_point ~base_config ctx ~budget ~cap) caps })
    budgets

let to_table (curves : curve list) : string =
  let headers = [ "budget"; "op cap"; "ops done"; "run(cycles)" ] in
  let body =
    List.concat_map
      (fun c ->
        List.map
          (fun p ->
            [ Printf.sprintf "%.0f" c.budget_percent;
              string_of_int p.operations; string_of_int p.performed;
              string_of_int p.run_cycles ])
          c.points)
      curves
  in
  Tables.render ~headers body
