(* tune_eval: what hlo_tune does, one candidate at a time.  Set-up
   prepares every suite benchmark at train input; each op is one
   Experiments.Policy_search.evaluate of one policy on one benchmark.
   (One client domain per core, as hlo_tune --jobs runs, swung
   ops_per_s by 30% and more between runs on a noisy 2-vCPU host.)

   The policies are a fixed pool of Policy.Space.sample draws, and a
   cover is every (benchmark, pool policy) pair in a seeded order; runs
   end on a whole cover.  Policies drawn from the run's seed would make
   each seed a different amount of work: across seeds that alone
   spread ops_per_s by about 17%.

   Failures are counted, never filtered: a driver exception (today:
   policies that run [outline] on more than one pass can crash with
   "add_routine: duplicate <routine>__cold<N>"), an oracle rejection
   and a simulator divergence all count in [failed].  Each of them
   also makes the run not [correct], except the known outline crash. *)

module PS = Experiments.Policy_search
module S = Workloads.Suite
module C = Common

let benchmarks = Array.of_list S.all

(* The first [pool_size] samples of the search space's stream 0. *)
let pool_size = 8

let pool =
  let rng = Random.State.make [| 0 |] in
  Array.init pool_size (fun _ -> Policy.Space.sample rng)

(* (benchmark, pool policy) index pairs. *)
let pairs =
  Array.init (Array.length benchmarks * pool_size) (fun i ->
      (i / pool_size, i mod pool_size))

let cover cfg k = C.cover cfg ~salt:3 (Array.length pairs) k

type verdict = Clean of PS.objectives | Crash of string | Reject of string

(* The outliner names a residue <routine>__cold<entry block>, so a
   second outline pass over the same routine collides with the first.
   Crashes of this shape fail the op but leave the run [correct]; any
   other crash does not. *)
let known_defect e =
  let needle = "add_routine: duplicate " in
  let nl = String.length needle and el = String.length e in
  let rec at i = i + nl <= el && (String.sub e i nl = needle || at (i + 1)) in
  at 0

let classify = function
  | Ok o -> Clean o
  | Error e ->
    if String.length e >= 7 && String.sub e 0 7 = "driver:" then Crash e
    else Reject e

let run (cfg : C.cfg) : C.outcome =
  let n = Array.length benchmarks in
  let npairs = Array.length pairs in
  let ctxs, setup_s =
    C.repeated_setup (fun () ->
        Array.map (PS.prepare ~input:S.Train) benchmarks)
  in
  let cover = C.memo (cover cfg) in
  let draw i =
    let b, p = pairs.((cover (i / npairs)).(i mod npairs)) in
    (b, pool.(p))
  in
  (* op index -> (benchmark, verdict); reset by each window *)
  let results = Hashtbl.create 256 in
  let crashes = ref 0 and rejects = ref 0 and attempted = ref 0 in
  let unknown_crashes = ref 0 in
  let rows = C.rows () in
  let traced_ops = ref [] in
  let traced_crashes = ref 0 and traced_rejects = ref 0 in
  let inline_acc = ref 0 and inline_all = ref 0 in
  let sim_instr = ref 0.0 and sim_us = ref 0.0 and icache_miss = ref 0.0 in
  let op ~trace i =
    let b, policy = draw i in
    incr attempted;
    let v, collector =
      C.op_collector ~trace ~index:i (fun () ->
          classify (PS.evaluate ctxs.(b) policy))
    in
    Hashtbl.replace results i (b, v);
    let count all traced =
      incr all;
      if trace then incr traced
    in
    (match v with
    | Clean _ -> ()
    | Crash e | Reject e ->
      (match v with
      | Crash e ->
        count crashes traced_crashes;
        if not (known_defect e) then incr unknown_crashes
      | _ -> count rejects traced_rejects);
      Printf.eprintf "tune_eval: %s under policy %s: %s\n%!"
        benchmarks.(b).S.b_name (Policy.hash policy) e);
    Option.iter
      (fun c ->
        match Spans.ops (Telemetry.Collector.spans c) with
        | [ o ] ->
          traced_ops := o :: !traced_ops;
          C.push_op_times rows o;
          (* Oracle.observe is the only interpreter run inside evaluate. *)
          C.push rows "oracle.observe.ms" (C.ms_of_us (Spans.self_us o "interp.run"));
          let acc, all = C.inline_decisions c in
          inline_acc := !inline_acc + acc;
          inline_all := !inline_all + all;
          sim_instr := !sim_instr +. C.counter c "machine.instructions";
          icache_miss := !icache_miss +. C.counter c "machine.icache_misses";
          sim_us := !sim_us +. Spans.self_us o "machine.sim"
        | _ -> ())
      collector
  in
  let window ~trace =
    Hashtbl.reset results;
    C.sequential ~cfg ~unit_size:npairs ~min_ops:npairs (op ~trace)
  in
  let untraced = window ~trace:false in
  let rss_mb = C.peak_rss_mb () in
  (* The first cover, kept before a traced window resets [results]. *)
  let prefix = List.init npairs (fun i -> Hashtbl.find results i) in
  let traced =
    if not cfg.C.trace then None
    else
      let tw = window ~trace:true in
      Some (tw, C.overhead_share ~untraced ~traced:tw)
  in
  (* The default policy on every benchmark, outside the windows: the
     base of tuned_cycles_ratio.  It must evaluate cleanly. *)
  let defaults =
    Array.map (fun cx -> classify (PS.evaluate cx Policy.default)) ctxs
  in
  let default_failures =
    Array.fold_left
      (fun acc v ->
        match v with
        | Clean _ -> acc
        | Crash e | Reject e ->
          Printf.eprintf "tune_eval: default policy: %s\n%!" e;
          acc + 1)
      0 defaults
  in
  let cycles = function Clean o -> Some o.PS.o_cycles | _ -> None in
  let ratios =
    List.init n (fun b ->
        match cycles defaults.(b) with
        | None -> None
        | Some base ->
          let best =
            List.fold_left
              (fun acc (b', v) ->
                match cycles v with
                | Some c when b' = b -> Float.min acc c
                | _ -> acc)
              base prefix
          in
          Some (best /. base))
  in
  let quality =
    if List.mem None ratios then []
    else [ ("tuned_cycles_ratio", Stats.geomean (List.filter_map Fun.id ratios)) ]
  in
  let prefix_cycles =
    List.fold_left
      (fun acc (_, v) -> acc +. Option.value ~default:0.0 (cycles v))
      0.0 prefix
  in
  let layers =
    match traced with
    | None -> []
    | Some (tw, overhead) ->
      let nops = float_of_int (List.length tw.C.lat_ms) in
      let share k = float_of_int k /. nops in
      List.map
        (fun name -> (name, C.row_median rows name))
        [ "op.ms"; "opt.ms"; "hlo.ms"; "hlo.clean.ms"; "hlo.outline.ms";
          "hlo.clone.ms"; "hlo.inline.ms"; "hlo.prune.ms"; "machine.layout.ms";
          "machine.sim.ms"; "interp.run.ms"; "oracle.observe.ms" ]
      @ [ ("hlo.crash_share", share !traced_crashes);
          ("oracle.reject_share", share !traced_rejects);
          ("hlo.inline.accept_share",
           if !inline_all = 0 then 0.0
           else float_of_int !inline_acc /. float_of_int !inline_all);
          ("machine.sim.cycles", prefix_cycles);
          ("machine.sim.minstr_per_s", if !sim_us = 0.0 then 0.0 else !sim_instr /. !sim_us);
          (* The simulator fetches through the I-cache once per
             instruction, so instructions are the accesses. *)
          ("machine.icache_miss_rate",
           if !sim_instr = 0.0 then 0.0 else !icache_miss /. !sim_instr);
          ("trace.unattributed_share",
           C.share_of_wall !traced_ops [ "op.self"; "other" ]);
          ("gc.minor_collections", float_of_int tw.C.minor_gcs /. nops);
          ("gc.major_collections", float_of_int tw.C.major_gcs /. nops);
          ("trace.overhead_share", overhead) ]
  in
  { C.setup_s; window = untraced; rss_mb; attempted = !attempted + n;
    failed = !crashes + !rejects + default_failures;
    correct = !rejects + !unknown_crashes + default_failures = 0; quality; layers;
    layer_scale = (match traced with Some (tw, _) -> tw.C.scale | None -> 1.0);
    det = quality @ [ ("machine.sim.cycles", prefix_cycles) ] }
