(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json declares the same names (the self-test checks that
   the two lists agree); the bounds live only there. *)

type better = Higher | Lower

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Reported by every untraced run.  Quality counts that a workload
   does not produce read 1 on it (see README.md). *)
let end_to_end =
  [ m "setup_s" "s" Lower;
    m "op_ms_p50" "ms" Lower;
    m "op_ms_p90" "ms" Lower;
    m "ops_per_s" "1/s" Higher;
    m "peak_rss_mb" "MB" Lower;
    m "speedup_geomean" "x" Higher;
    m "size_growth_geomean" "x" Lower;
    m "code_kinstr" "kinstr" Lower;
    m "tuned_cycles_ratio" "x" Lower ]

(* Reported by every traced run; a layer a workload never enters
   reads 0 on it. *)
let per_layer =
  [ m "op.ms" "ms" Lower;
    m "minic.ms" "ms" Lower;
    m "minic.minor_mw" "Mwords" Lower;
    m "opt.ms" "ms" Lower;
    m "opt.routines" "count" Lower;
    m "hlo.ms" "ms" Lower;
    m "hlo.minor_mw" "Mwords" Lower;
    m "hlo.clean.ms" "ms" Lower;
    m "hlo.outline.ms" "ms" Lower;
    m "hlo.clone.ms" "ms" Lower;
    m "hlo.inline.ms" "ms" Lower;
    m "hlo.prune.ms" "ms" Lower;
    m "hlo.summary_cache.hit_rate" "share" Higher;
    m "hlo.passes" "count" Lower;
    m "hlo.inlines" "count" Higher;
    m "hlo.clones" "count" Higher;
    m "hlo.deletions" "count" Higher;
    m "hlo.cost_growth" "x" Lower;
    m "hlo.inline.accept_share" "share" Higher;
    m "hlo.crash_share" "share" Lower;
    m "machine.layout.ms" "ms" Lower;
    m "machine.sim.ms" "ms" Lower;
    m "machine.sim.minstr_per_s" "Minstr/s" Higher;
    m "machine.sim.minor_words_per_instr" "words" Lower;
    m "machine.sim.cycles" "count" Lower;
    m "machine.sim.instructions" "count" Lower;
    m "machine.icache_miss_rate" "share" Lower;
    m "interp.train.ms" "ms" Lower;
    m "interp.train.calls" "count" Lower;
    m "interp.train.repeat_share" "share" Lower;
    m "interp.run.ms" "ms" Lower;
    m "interp.run.calls" "count" Lower;
    m "interp.run.repeat_share" "share" Lower;
    m "interp.msteps_per_s" "Msteps/s" Higher;
    m "interp.minor_words_per_step" "words" Lower;
    m "experiments.pipeline.self_ms" "ms" Lower;
    m "experiments.engine_share" "share" Lower;
    m "oracle.observe.ms" "ms" Lower;
    m "oracle.reject_share" "share" Lower;
    m "serve.hit_share" "share" Higher;
    m "serve.coalesced_share" "share" Higher;
    m "serve.queued_share" "share" Lower;
    m "serve.server_ms_p50" "ms" Lower;
    m "serve.wire_ms_p50" "ms" Lower;
    m "serve.miss_ms_p50" "ms" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "trace.unattributed_share" "share" Lower;
    m "trace.overhead_share" "share" Lower;
    m "failed_share" "share" Lower ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let workloads = [ "paper_ref"; "compile_mix"; "tune_eval"; "serve_mix" ]
