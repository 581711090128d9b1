(** Ablation studies for the design choices DESIGN.md calls out.

    Each study toggles one mechanism and reports what it buys on a
    subset of the suite:

    - {b staging}: the budget is released in stages across passes
      (Figure 2's [S[0..limit-1]]) versus handing the whole allowance
      to pass 0;
    - {b cold-penalty}: the inliner's penalty for call sites executed
      less often than their caller's entry versus treating all sites
      by raw frequency;
    - {b outlining}: the §5 "aggressive outlining" extension on/off;
    - {b positioning}: Pettis–Hansen profile-guided code positioning
      of the post-HLO image versus program-order layout, measured on a
      deliberately small I-cache where placement conflicts matter. *)

type variant_row = {
  a_benchmark : string;
  a_variant : string;
  a_cycles : int;
  a_detail : string;  (** study-specific extra column *)
}

type study = {
  st_name : string;
  st_detail_label : string;
  st_rows : variant_row list;
}

let default_benchmarks = [ "022.li"; "124.m88ksim"; "147.vortex"; "072.sc" ]

let prepare ?(input = Workloads.Suite.Train) name =
  Pipeline.prepare ~input (Workloads.Suite.find name)

(* A study of HLO configurations: one row per benchmark and [variants]
   entry, a label and the configuration it measures; [detail] renders
   the study's extra column from the HLO report. *)
let config_study ?input ~benchmarks ~name ~detail_label ~detail variants :
    study =
  let rows =
    List.concat_map
      (fun bench ->
        let ctx = prepare ?input bench in
        List.map
          (fun (label, config) ->
            let r = Pipeline.measure ctx config in
            { a_benchmark = bench; a_variant = label;
              a_cycles = r.Pipeline.r_metrics.Machine.Metrics.cycles;
              a_detail = detail r.Pipeline.r_report })
          variants)
      benchmarks
  in
  { st_name = name; st_detail_label = detail_label; st_rows = rows }

(* ------------------------------------------------------------------ *)

let staging ?input ?(benchmarks = default_benchmarks) () : study =
  let at staging = { Hlo.Config.default with Hlo.Config.staging } in
  config_study ?input ~benchmarks ~name:"budget staging"
    ~detail_label:"operations"
    ~detail:(fun rep -> string_of_int (Hlo.Report.total_operations rep))
    [ ("staged", at [ 0.25; 0.5; 0.75; 1.0 ]); ("all-upfront", at [ 1.0 ]) ]

let cold_penalty ?input ?(benchmarks = default_benchmarks) () : study =
  let at penalty =
    { Hlo.Config.default with Hlo.Config.cold_site_penalty = penalty }
  in
  config_study ?input ~benchmarks ~name:"cold-site penalty"
    ~detail_label:"inlines"
    ~detail:(fun rep -> string_of_int rep.Hlo.Report.inlines)
    [ ("penalized", at 0.25); ("raw-frequency", at 1.0) ]

let outlining ?input ?(benchmarks = default_benchmarks) () : study =
  let at enable =
    { Hlo.Config.default with Hlo.Config.enable_outlining = enable }
  in
  config_study ?input ~benchmarks ~name:"aggressive outlining (paper §5)"
    ~detail_label:"outlined/cost"
    ~detail:(fun rep ->
      Printf.sprintf "%d outlined / cost %.0f" rep.Hlo.Report.outlined
        rep.Hlo.Report.cost_after)
    [ ("inline-only", at false); ("outline+inline", at true) ]

(** A small, direct-mapped I-cache where routine placement decides
    which hot pairs conflict. *)
let tight_icache_sim =
  { Machine.Sim.default_config with
    Machine.Sim.icache = { Machine.Cache.sets = 48; assoc = 1; line_words = 8 } }

let positioning ?input ?(benchmarks = default_benchmarks) () : study =
  let rows =
    List.concat_map
      (fun name ->
        let ctx = prepare ?input name in
        let r =
          Pipeline.measure ~sim_config:tight_icache_sim ctx Hlo.Config.default
        in
        let optimized = r.Pipeline.r_program in
        let trained = (Interp.train optimized).Interp.profile in
        let positioned =
          Pipeline.simulate ~sim_config:tight_icache_sim ctx
            (Machine.Positioning.apply optimized trained)
        in
        let row label (m : Machine.Metrics.t) =
          { a_benchmark = name; a_variant = label;
            a_cycles = m.Machine.Metrics.cycles;
            a_detail = string_of_int m.Machine.Metrics.icache_misses }
        in
        [ row "program-order" r.Pipeline.r_metrics;
          row "pettis-hansen" positioned.Machine.Sim.metrics ])
      benchmarks
  in
  { st_name = "profile-guided code positioning (Pettis-Hansen, [12])";
    st_detail_label = "I$ misses"; st_rows = rows }

let all ?input ?benchmarks () : study list =
  [ staging ?input ?benchmarks (); cold_penalty ?input ?benchmarks ();
    outlining ?input ?benchmarks (); positioning ?input ?benchmarks () ]

let to_table (s : study) : string =
  Printf.sprintf "-- %s --\n%s" s.st_name
    (Tables.render
       ~aligns:[ Tables.Left; Tables.Left ]
       ~headers:[ "benchmark"; "variant"; "run(cycles)"; s.st_detail_label ]
       (List.map
          (fun r ->
            [ r.a_benchmark; r.a_variant; string_of_int r.a_cycles; r.a_detail ])
          s.st_rows))
