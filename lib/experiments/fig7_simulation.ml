(** Figure 7: simulation results for the PA8000-style machine running
    the SPEC95-style benchmarks under the four transform
    configurations.

    The panels, as in the paper: relative cycles, CPI, relative I-cache
    accesses, I-cache miss rate (x1000), relative D-cache accesses,
    D-cache miss rate (x100), relative branches, branch miss rate —
    each "relative" panel scaled against the run with neither inlining
    nor cloning. *)

(** The paper simulated "modified versions of the SPEC95 integer
    benchmarks with simplified input sets"; we use the train inputs of
    the 95-style suite for the same reason. *)
let default_benchmarks =
  [ "099.go"; "124.m88ksim"; "126.gcc"; "129.compress"; "130.li";
    "132.ijpeg"; "134.perl"; "147.vortex" ]

type row = {
  benchmark : string;
  transforms : Pipeline.transforms;
  metrics : Machine.Metrics.t;
  rel_cycles : float;
  cpi : float;
  rel_icache_accesses : float;
  icache_miss_x1000 : float;
  rel_dcache_accesses : float;
  dcache_miss_x100 : float;
  rel_branches : float;
  branch_miss_rate : float;
}

let run_one ?(input = Workloads.Suite.Train) ?sim_config
    ~(base_config : Hlo.Config.t) (name : string) : row list =
  let ctx = Pipeline.prepare ~input (Workloads.Suite.find name) in
  let metric_of transforms =
    let config = Pipeline.config_of_transforms ~base:base_config transforms in
    (Pipeline.measure ?sim_config ctx config).Pipeline.r_metrics
  in
  let baseline = metric_of Pipeline.Neither in
  let make transforms metrics =
    { benchmark = name; transforms; metrics;
      rel_cycles =
        Machine.Metrics.relative ~baseline (fun m -> m.Machine.Metrics.cycles)
          metrics;
      cpi = Machine.Metrics.cpi metrics;
      rel_icache_accesses =
        Machine.Metrics.relative ~baseline
          (fun m -> m.Machine.Metrics.icache_accesses)
          metrics;
      icache_miss_x1000 = 1000.0 *. Machine.Metrics.icache_miss_rate metrics;
      rel_dcache_accesses =
        Machine.Metrics.relative ~baseline
          (fun m -> m.Machine.Metrics.dcache_accesses)
          metrics;
      dcache_miss_x100 = 100.0 *. Machine.Metrics.dcache_miss_rate metrics;
      rel_branches =
        Machine.Metrics.relative ~baseline (fun m -> m.Machine.Metrics.branches)
          metrics;
      branch_miss_rate = Machine.Metrics.branch_miss_rate metrics }
  in
  [ make Pipeline.Neither baseline;
    make Pipeline.Clone_only (metric_of Pipeline.Clone_only);
    make Pipeline.Inline_only (metric_of Pipeline.Inline_only);
    make Pipeline.Both (metric_of Pipeline.Both) ]

let run ?input ?sim_config ?(base_config = Hlo.Config.default)
    ?(benchmarks = default_benchmarks) () : row list =
  List.concat_map (fun n -> run_one ?input ?sim_config ~base_config n) benchmarks

let to_table (rows : row list) : string =
  let headers =
    [ "benchmark"; "config"; "rel.cycles"; "CPI"; "rel.I$acc"; "I$miss*1000";
      "rel.D$acc"; "D$miss*100"; "rel.branches"; "br.missrate" ]
  in
  let body =
    List.map
      (fun r ->
        [ r.benchmark; Pipeline.transforms_name r.transforms;
          Tables.f3 r.rel_cycles; Tables.f3 r.cpi;
          Tables.f3 r.rel_icache_accesses; Tables.f2 r.icache_miss_x1000;
          Tables.f3 r.rel_dcache_accesses; Tables.f2 r.dcache_miss_x100;
          Tables.f3 r.rel_branches; Tables.f3 r.branch_miss_rate ])
      rows
  in
  Tables.render ~aligns:[ Tables.Left; Tables.Left ] ~headers body
