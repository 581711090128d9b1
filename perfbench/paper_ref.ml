(* paper_ref: the call behind fig6/fig7/table1/modes.  One client; each
   op is one Experiments.Pipeline.run_benchmark at ref input on a
   (benchmark, Figure 6 config) pair.  A cover is a seeded order of all
   14 benchmarks under both "neither" and "inline and clone"; runs end
   on a whole cover. *)

module P = Experiments.Pipeline
module S = Workloads.Suite
module C = Common

let pairs =
  Array.of_list
    (List.concat_map (fun b -> [ (b, P.Neither); (b, P.Both) ]) S.all)

(* The [k]th cover: a seeded order of [pairs]. *)
let cover cfg k = C.cover cfg ~salt:1 (Array.length pairs) k

let key (b, tr) = b.S.b_name ^ "/" ^ P.transforms_name tr

(* What one op leaves for the checks after the window. *)
type first = {
  f_program : Ucode.Types.program;  (** after HLO *)
  f_metrics : Machine.Metrics.t;
  f_report : Hlo.Report.t;
}

(* A benchmark's untransformed program at ref input and what the
   reference interpreter makes of it. *)
type reference = {
  program : Ucode.Types.program;
  output : Digest.t;
  steps : int;
  minor_words : float;  (** allocated by the interpreter run *)
}

let reference b =
  let program = S.compile b ~input:S.Ref in
  let w0 = Gc.minor_words () in
  let r = Interp.run program in
  { program; output = Digest.string r.Interp.output; steps = r.Interp.steps;
    minor_words = Gc.minor_words () -. w0 }

let run (cfg : C.cfg) : C.outcome =
  let n = Array.length pairs in
  (* Set-up computes the reference every op's output is checked
     against. *)
  let references, setup_s =
    C.repeated_setup (fun () ->
        List.map (fun b -> (b.S.b_name, reference b)) S.all)
  in
  let cover = C.memo (cover cfg) in
  let pair_of i = pairs.((cover (i / n)).(i mod n)) in
  let firsts = Hashtbl.create n in
  let pinned = Hashtbl.create n in
  (* (benchmark, output digest) per successful op, checked later. *)
  let outputs = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let rows = C.rows () in
  let traced_ops = ref [] in
  let trained = Hashtbl.create 16 and train_calls = ref 0 and train_repeats = ref 0 in
  let ran = Hashtbl.create 16 and run_calls = ref 0 and run_repeats = ref 0 in
  let inline_acc = ref 0 and inline_all = ref 0 in
  let icache_acc = ref 0 and icache_miss = ref 0 in
  let steps = ref 0.0 and interp_us = ref 0.0 in
  let sim_instr = ref 0.0 and sim_us = ref 0.0 in
  (* A repeat is a call on a benchmark already trained (or run) in the
     same cover; the tables restart with each cover, so the share does
     not depend on how many covers a window holds. *)
  let calls tbl ~calls ~repeats name k =
    for _ = 1 to k do
      incr calls;
      if Hashtbl.mem tbl name then incr repeats else Hashtbl.replace tbl name ()
    done
  in
  let op ~trace i =
    let ((b, tr) as pair) = pair_of i in
    if i mod n = 0 then begin
      Hashtbl.reset trained;
      Hashtbl.reset ran
    end;
    incr attempted;
    let cs0 = Hlo.Summary_cache.stats () in
    let result, collector =
      C.op_collector ~trace ~index:i (fun () ->
          match P.run_benchmark ~config:(P.config_of_transforms tr) b with
          | r -> Some r
          | exception e ->
            Printf.eprintf "paper_ref: %s failed: %s\n%!" (key pair)
              (Printexc.to_string e);
            None)
    in
    match result with
    | None -> incr failed
    | Some r ->
      let m = r.P.r_metrics in
      C.pin pinned (key pair)
        ([ ("cycles", float_of_int m.Machine.Metrics.cycles);
           ("instructions", float_of_int m.Machine.Metrics.instructions) ]
        @ C.report_counts r.P.r_report);
      if not (Hashtbl.mem firsts (key pair)) then
        Hashtbl.replace firsts (key pair)
          { f_program = r.P.r_program; f_metrics = m; f_report = r.P.r_report };
      outputs := (b.S.b_name, Digest.string r.P.r_output) :: !outputs;
      Option.iter
        (fun c ->
          match Spans.ops (Telemetry.Collector.spans c) with
          | [ o ] ->
            traced_ops := o :: !traced_ops;
            C.push_op_times rows o;
            C.push rows "experiments.pipeline.self_ms"
              (C.ms_of_us (Spans.self_us o "op.self"));
            calls trained ~calls:train_calls ~repeats:train_repeats
              b.S.b_name (Spans.count o "interp.train");
            calls ran ~calls:run_calls ~repeats:run_repeats b.S.b_name
              (Spans.count o "interp.run");
            C.push rows "interp.train.calls"
              (float_of_int (Spans.count o "interp.train"));
            C.push rows "interp.run.calls"
              (float_of_int (Spans.count o "interp.run"));
            C.push rows "opt.routines" (C.counter c "opt.routines_optimized");
            let rep = r.P.r_report in
            C.push rows "hlo.cost_growth"
              (rep.Hlo.Report.cost_after /. rep.Hlo.Report.cost_before);
            let cs1 = Hlo.Summary_cache.stats () in
            let hits = cs1.Hlo.Summary_cache.hits - cs0.Hlo.Summary_cache.hits in
            let misses =
              cs1.Hlo.Summary_cache.misses - cs0.Hlo.Summary_cache.misses
            in
            if hits + misses > 0 then
              C.push rows "hlo.summary_cache.hit_rate"
                (float_of_int hits /. float_of_int (hits + misses));
            let acc, all = C.inline_decisions c in
            inline_acc := !inline_acc + acc;
            inline_all := !inline_all + all;
            icache_acc := !icache_acc + m.Machine.Metrics.icache_accesses;
            icache_miss := !icache_miss + m.Machine.Metrics.icache_misses;
            steps := !steps +. C.counter c "interp.steps";
            interp_us :=
              !interp_us +. Spans.self_us o "interp.train"
              +. Spans.self_us o "interp.run";
            sim_instr := !sim_instr +. C.counter c "machine.instructions";
            sim_us := !sim_us +. Spans.self_us o "machine.sim"
          | _ -> ())
        collector
  in
  let window ~trace =
    C.sequential ~cfg ~unit_size:n ~min_ops:n (op ~trace)
  in
  let untraced, rss_mb, traced = C.windows ~cfg window in
  (* The check: every simulated output equals the reference
     interpreter's on the untransformed program.  run_benchmark makes
     the same comparison itself and raises on a mismatch, which counts
     as a failed op above; this one is computed by the benchmark, from
     the reference made in set-up, so it holds even if that guard
     changes. *)
  let mismatches =
    List.length
      (List.filter
         (fun (name, d) ->
           (List.assoc name references).output <> d
           && (Printf.eprintf "paper_ref: %s output differs from the reference\n%!" name;
               true))
         !outputs)
  in
  (* Laid-out code size of each pair's image. *)
  let sizes = Hashtbl.create n in
  Hashtbl.iter
    (fun k f ->
      Hashtbl.replace sizes k
        (float_of_int (Machine.Layout.code_size (Machine.Layout.build f.f_program))))
    firsts;
  let cycles f = float_of_int f.f_metrics.Machine.Metrics.cycles in
  let per_benchmark g =
    List.filter_map
      (fun b ->
        let neither = key (b, P.Neither) and both = key (b, P.Both) in
        match (Hashtbl.find_opt firsts neither, Hashtbl.find_opt firsts both) with
        | Some fn, Some fb ->
          Some (g (fn, Hashtbl.find sizes neither) (fb, Hashtbl.find sizes both))
        | _ -> None)
      S.all
  in
  let quality =
    if Hashtbl.length firsts < n then []
    else
      [ ("speedup_geomean",
         Stats.geomean (per_benchmark (fun (n, _) (b, _) -> cycles n /. cycles b)));
        ("size_growth_geomean",
         Stats.geomean (per_benchmark (fun (_, sn) (_, sb) -> sb /. sn)));
        ("code_kinstr", Hashtbl.fold (fun _ s acc -> acc +. s) sizes 0.0 /. 1000.0) ]
  in
  let totals field =
    Hashtbl.fold (fun _ f acc -> acc +. field f) firsts 0.0
  in
  let hlo_totals =
    C.hlo_totals (Hashtbl.fold (fun _ f acc -> f.f_report :: acc) firsts [])
  in
  let layers =
    match traced with
    | None -> []
    | Some (tw, overhead) ->
      let ops = !traced_ops in
      let nops = float_of_int (List.length tw.C.lat_ms) in
      let sim_words, sim_n =
        List.fold_left
          (fun (words, instr) (_, r) ->
            let image = Machine.Layout.build r.program in
            let w0 = Gc.minor_words () in
            let r = Machine.Sim.run image in
            ( words +. (Gc.minor_words () -. w0),
              instr + r.Machine.Sim.metrics.Machine.Metrics.instructions ))
          (0.0, 0) references
      in
      let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
      List.map
        (fun name -> (name, C.row_median rows name))
        [ "op.ms"; "minic.ms"; "opt.ms"; "opt.routines"; "hlo.ms"; "hlo.clean.ms";
          "hlo.outline.ms"; "hlo.clone.ms"; "hlo.inline.ms"; "hlo.prune.ms";
          "hlo.summary_cache.hit_rate"; "hlo.cost_growth"; "machine.layout.ms";
          "machine.sim.ms"; "interp.train.ms"; "interp.train.calls";
          "interp.run.ms"; "interp.run.calls"; "experiments.pipeline.self_ms" ]
      @ hlo_totals
      @ [ ("hlo.inline.accept_share", share !inline_acc !inline_all);
          ("machine.sim.cycles", totals cycles);
          ("machine.sim.instructions",
           totals (fun f -> float_of_int f.f_metrics.Machine.Metrics.instructions));
          ("machine.icache_miss_rate", share !icache_miss !icache_acc);
          ("machine.sim.minstr_per_s",
           if !sim_us = 0.0 then 0.0 else !sim_instr /. !sim_us);
          ("machine.sim.minor_words_per_instr", sim_words /. float_of_int (max 1 sim_n));
          ("interp.train.repeat_share", share !train_repeats !train_calls);
          ("interp.run.repeat_share", share !run_repeats !run_calls);
          ("interp.msteps_per_s", if !interp_us = 0.0 then 0.0 else !steps /. !interp_us);
          ("interp.minor_words_per_step",
           let sum f = List.fold_left (fun acc (_, r) -> acc +. f r) 0.0 references in
           sum (fun r -> r.minor_words) /. sum (fun r -> float_of_int r.steps));
          ("experiments.engine_share",
           C.share_of_wall ops [ "machine.sim"; "interp.train"; "interp.run" ]);
          ("trace.unattributed_share", C.share_of_wall ops [ "op.self"; "other" ]);
          ("gc.minor_collections", float_of_int tw.C.minor_gcs /. nops);
          ("gc.major_collections", float_of_int tw.C.major_gcs /. nops);
          ("trace.overhead_share", overhead) ]
  in
  { C.setup_s; window = untraced; rss_mb; attempted = !attempted;
    failed = !failed + mismatches; correct = !failed + mismatches = 0; quality; layers;
    layer_scale = (match traced with Some (tw, _) -> tw.C.scale | None -> 1.0);
    det =
      quality
      @ hlo_totals
      @ [ ("machine.sim.cycles", totals cycles) ] }
