(* The benchmark harness: Bechamel timings.  One Test.make per
   table/figure measuring the cost of regenerating (a slice of) it, plus
   micro-benchmarks of the compiler's own phases — front end, scalar
   optimizer, HLO, back end, and both execution engines.  The tables
   and figures themselves come from [hlo-experiments all --input ref].

     dune exec bench/main.exe *)

open Bechamel
open Toolkit

let section title = Fmt.pr "@.== %s ==@.@." title

(* Shared fixtures, prepared once so the timed bodies measure the
   phase under test and not setup. *)
let li = Workloads.Suite.find "022.li"
let li_program = Workloads.Suite.compile li ~input:Workloads.Suite.Train
let li_optimized = Opt.Pipeline.optimize_program li_program
let li_profile = (Interp.train li_program).Interp.profile
let li_sources = Workloads.Suite.sources li ~input:Workloads.Suite.Train
let li_image =
  Machine.Layout.build
    (Hlo.Driver.run ~profile:li_profile li_program).Hlo.Driver.program

let quick_config =
  { Hlo.Config.default with Hlo.Config.pass_limit = 2 }

(* One test per table/figure: a representative slice, so the timing
   stays in micro-benchmark territory. *)
let table_figure_tests =
  [ Test.make ~name:"fig5/classify-all-benchmarks"
      (Staged.stage (fun () -> ignore (Experiments.Fig5_callsites.run ())));
    Test.make ~name:"table1/022.li-scope-cp"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Table1_transforms.run_one ~base_config:quick_config
                (Experiments.Pipeline.prepare ~input:Workloads.Suite.Train li)
                Hlo.Config.CP)));
    Test.make ~name:"fig6/072.sc-speedups"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig6_speedup.run_one ~input:Workloads.Suite.Train
                ~base_config:quick_config (Workloads.Suite.find "072.sc"))));
    Test.make ~name:"fig7/147.vortex-simulation"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig7_simulation.run_one ~base_config:quick_config
                "147.vortex")));
    Test.make ~name:"fig8/022.li-one-point"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig8_budget.run_point ~base_config:quick_config
                (Experiments.Pipeline.prepare ~input:Workloads.Suite.Train li)
                ~budget:100.0 ~cap:10)));
    Test.make ~name:"ablations/positioning-022.li"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Ablations.positioning ~benchmarks:[ "022.li" ] ())));
    Test.make ~name:"scaling/8-modules"
      (Staged.stage (fun () ->
           ignore (Experiments.Scaling.run_one ~modules:8)));
    Test.make ~name:"cache-sweep/130.li"
      (Staged.stage (fun () ->
           ignore (Experiments.Cache_sweep.run_one "130.li"))) ]

(* Telemetry: the disabled path must stay ~free (one branch per
   event), and the enabled counter path cheap. The enabled-span path
   is excluded from Bechamel because recorded spans accumulate. *)
let telemetry_tests =
  let enabled_collector = Telemetry.Collector.create () in
  [ Test.make ~name:"telemetry/disabled-count"
      (Staged.stage (fun () -> Telemetry.Collector.count "bench.count" 1));
    Test.make ~name:"telemetry/disabled-span"
      (Staged.stage (fun () ->
           Telemetry.Collector.with_span "bench.span" (fun () -> ())));
    Test.make ~name:"telemetry/enabled-count"
      (Staged.stage (fun () ->
           Telemetry.Collector.count_in enabled_collector "bench.count" 1.0)) ]

(* The hard guard behind the Bechamel numbers: time a burst of
   disabled events directly and complain if they cost more than a
   handful of nanoseconds each. *)
let telemetry_guard () =
  assert (not (Telemetry.Collector.enabled ()));
  let n = 5_000_000 in
  let t0 = Telemetry.Clock.now_us () in
  for _ = 1 to n do
    Telemetry.Collector.count "guard.event" 1
  done;
  let t1 = Telemetry.Clock.now_us () in
  let ns = (t1 -. t0) *. 1e3 /. float_of_int n in
  Fmt.pr "telemetry guard: disabled event = %.2f ns/event (%s)@." ns
    (if ns < 100.0 then "ok"
     else "SLOW: disabled telemetry must cost one branch per event")

(* Phase micro-benchmarks: where does compile time actually go? *)
let phase_tests =
  [ Test.make ~name:"phase/front-end-022.li"
      (Staged.stage (fun () ->
           ignore (Minic.Compile.compile_program li_sources)));
    Test.make ~name:"phase/scalar-optimizer-022.li"
      (Staged.stage (fun () -> ignore (Opt.Pipeline.optimize_program li_program)));
    Test.make ~name:"phase/hlo-022.li"
      (Staged.stage (fun () ->
           ignore (Hlo.Driver.run ~profile:li_profile li_optimized)));
    Test.make ~name:"phase/backend-lower-layout-022.li"
      (Staged.stage (fun () -> ignore (Machine.Layout.build li_optimized)));
    Test.make ~name:"phase/interp-train-022.li"
      (Staged.stage (fun () -> ignore (Interp.train li_program)));
    Test.make ~name:"phase/simulate-022.li"
      (Staged.stage (fun () -> ignore (Machine.Sim.run li_image))) ]

let benchmark () =
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false
      ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let tests =
    Test.make_grouped ~name:"aggressive-inlining"
      (table_figure_tests @ phase_tests @ telemetry_tests)
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  section "Bechamel timings (per run)";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> nan
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Fmt.pr "%-40s  (no estimate)@." name
      else if ns > 1e9 then Fmt.pr "%-40s %10.3f s@." name (ns /. 1e9)
      else if ns > 1e6 then Fmt.pr "%-40s %10.3f ms@." name (ns /. 1e6)
      else Fmt.pr "%-40s %10.3f us@." name (ns /. 1e3))
    (List.sort compare !rows)

let () =
  benchmark ();
  telemetry_guard ();
  Fmt.pr "@.done.@."
