(** Three-way inline-mode comparison (whole / region / demand).

    Every row is produced by {!Pipeline.measure}, whose
    output-equality guard doubles as the oracle: a row only exists
    because the transformed program printed byte-for-byte the
    untransformed program's output.  Running this experiment therefore
    *is* the suite-wide equivalence check for the three modes.

    The modes only diverge when some hot callee fails the whole-body
    budget check — at the paper-default 100% allowance that is rare on
    the suite, so the headline comparison runs at a deliberately
    starved budget where splitting is the only way to keep inlining.
    Region mode then outlines the cold half of an unaffordable callee
    and inlines the hot residue; the size column shows what that costs
    and the cycles column what it buys. *)

type point = {
  m_cycles : float;
  m_size : float;
  m_cost : float;  (** quadratic compile-space cost, the budget metric *)
  m_inlines : int;
  m_residues : int;  (** residue routines created by splitting *)
}

type row = {
  im_benchmark : string;
  im_whole : point;
  im_region : point;
  im_demand : point;
}

type study = {
  im_input : Workloads.Suite.input;
  im_budget : float;
  im_cold_fraction : float;
  im_rows : row list;
}

let all_benchmarks () =
  List.map
    (fun (b : Workloads.Suite.benchmark) -> b.Workloads.Suite.b_name)
    Workloads.Suite.all

let point_of_run (r : Pipeline.run) =
  { m_cycles = float_of_int r.Pipeline.r_metrics.Machine.Metrics.cycles;
    m_size = float_of_int (Ucode.Size.program_size r.Pipeline.r_program);
    m_cost = r.Pipeline.r_report.Hlo.Report.cost_after;
    m_inlines = r.Pipeline.r_report.Hlo.Report.inlines;
    m_residues = r.Pipeline.r_report.Hlo.Report.residue_outlined }

let run ?(input = Workloads.Suite.Train) ?(budget = 15.0)
    ?(cold_fraction = 0.5) ?benchmarks () : study =
  let benchmarks =
    match benchmarks with Some bs -> bs | None -> all_benchmarks ()
  in
  let rows =
    List.map
      (fun name ->
        let ctx = Pipeline.prepare ~input (Workloads.Suite.find name) in
        let at mode =
          let config =
            { Hlo.Config.default with
              Hlo.Config.budget_percent = budget; inline_mode = mode;
              region_cold_fraction = cold_fraction }
          in
          point_of_run (Pipeline.measure ctx config)
        in
        { im_benchmark = name; im_whole = at Policy.Whole;
          im_region = at Policy.Region; im_demand = at Policy.Demand })
      benchmarks
  in
  { im_input = input; im_budget = budget; im_cold_fraction = cold_fraction;
    im_rows = rows }

(** Benchmarks where region strictly beats whole on cycles without
    costing any linear size. *)
let region_wins (s : study) : row list =
  List.filter
    (fun r ->
      r.im_region.m_cycles < r.im_whole.m_cycles
      && r.im_region.m_size <= r.im_whole.m_size)
    s.im_rows

let to_table (s : study) : string =
  let f0 v = Printf.sprintf "%.0f" v in
  Printf.sprintf
    "-- inline modes @ budget %.0f%%, cold fraction %.2f --\n%s"
    s.im_budget s.im_cold_fraction
    (Tables.render
       ~aligns:[ Tables.Left ]
       ~headers:
         [ "benchmark"; "whole(cyc)"; "region(cyc)"; "demand(cyc)";
           "whole(sz)"; "region(sz)"; "demand(sz)"; "splits" ]
       (List.map
          (fun r ->
            [ r.im_benchmark; f0 r.im_whole.m_cycles; f0 r.im_region.m_cycles;
              f0 r.im_demand.m_cycles; f0 r.im_whole.m_size;
              f0 r.im_region.m_size; f0 r.im_demand.m_size;
              string_of_int r.im_region.m_residues ])
          s.im_rows))

(* ------------------------------------------------------------------ *)
(* JSON (BENCH_pr10.json).                                             *)

module J = Telemetry.Json

let json_of_point (p : point) =
  J.Assoc
    [ ("cycles", J.Float p.m_cycles); ("size", J.Float p.m_size);
      ("cost", J.Float p.m_cost); ("inlines", J.Int p.m_inlines);
      ("residues", J.Int p.m_residues) ]

let to_json (s : study) : J.t =
  J.Assoc
    [ ("experiment", J.String "inline_modes");
      ( "input",
        J.String
          (match s.im_input with
          | Workloads.Suite.Train -> "train"
          | Workloads.Suite.Ref -> "ref") );
      ("budget_percent", J.Float s.im_budget);
      ("region_cold_fraction", J.Float s.im_cold_fraction);
      ( "benchmarks",
        J.List
          (List.map
             (fun r ->
               J.Assoc
                 [ ("name", J.String r.im_benchmark);
                   ("whole", json_of_point r.im_whole);
                   ("region", json_of_point r.im_region);
                   ("demand", json_of_point r.im_demand) ])
             s.im_rows) );
      ( "region_wins",
        J.List
          (List.map (fun r -> J.String r.im_benchmark) (region_wins s)) ) ]
