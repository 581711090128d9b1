(* compile_mix: hloc-style compiles with no execution engine in the
   timed op.  One client; each op is Minic.Compile.compile_program ->
   Hlo.Driver.run -> Machine.Layout.build on one program of the set:
   the 14 suite programs at ref input with their training profiles,
   and the three Prog_gen.Scale shapes without a profile.  The
   process-wide HLO caches are emptied before every op, so each op
   sees what a fresh hloc process sees.  Runs end on a whole cover of
   the set. *)

module S = Workloads.Suite
module C = Common

(* Large enough that the shapes load the cloner, inliner and scalar
   optimizer differently; small enough that a window holds the
   hundred ops a 90th percentile needs. *)
let scale_routines = 500

(* The shapes are fixed programs (their generator's seed is not the
   run's): the run's seed orders the ops. *)
let scale_seed = 1

type input = {
  name : string;
  sources : Minic.Compile.source list;
  profile : Ucode.Profile.t;
}

let inputs () =
  List.map
    (fun b ->
      { name = b.S.b_name; sources = S.sources b ~input:S.Ref;
        profile = Experiments.Pipeline.train_profile b })
    S.all
  @ List.map
      (fun shape ->
        { name = "scale." ^ Prog_gen.Scale.shape_name shape;
          sources =
            Prog_gen.Scale.sources shape ~routines:scale_routines
              ~seed:scale_seed;
          profile = Ucode.Profile.empty })
      Prog_gen.Scale.all_shapes

(* The compile a fresh hloc process runs. *)
let compile ~minic_words ~hlo_words input =
  Hlo.Summary_cache.clear ();
  Hlo.Clone_db.clear ();
  let program, _diags =
    C.bench_span "bench.minic" ~minor:minic_words (fun () ->
        Minic.Compile.compile_program input.sources)
  in
  let result =
    C.bench_span "bench.hlo" ~minor:hlo_words (fun () ->
        Hlo.Driver.run ~profile:input.profile program)
  in
  let image =
    C.bench_span "bench.layout" (fun () ->
        Machine.Layout.build result.Hlo.Driver.program)
  in
  (program, result, image)

let run (cfg : C.cfg) : C.outcome =
  let inputs, setup_s = C.repeated_setup (fun () -> Array.of_list (inputs ())) in
  let n = Array.length inputs in
  let cover = C.memo (C.cover cfg ~salt:2 n) in
  let input_of i = inputs.((cover (i / n)).(i mod n)) in
  let pinned = Hashtbl.create n in
  (* name -> (pre-HLO program, HLO result, image, ops that built it) *)
  let firsts = Hashtbl.create n in
  let attempted = ref 0 and failed = ref 0 in
  let rows = C.rows () in
  let traced_ops = ref [] in
  let inline_acc = ref 0 and inline_all = ref 0 in
  let op ~trace i =
    let input = input_of i in
    incr attempted;
    let minic_words = ref 0.0 and hlo_words = ref 0.0 in
    let result, collector =
      C.op_collector ~trace ~index:i (fun () ->
          match compile ~minic_words ~hlo_words input with
          | r -> Some r
          | exception e ->
            Printf.eprintf "compile_mix: %s failed: %s\n%!" input.name
              (Printexc.to_string e);
            None)
    in
    match result with
    | None -> incr failed
    | Some (program, result, image) ->
      let report = result.Hlo.Driver.report in
      C.pin pinned input.name
        ([ ("code_size", float_of_int (Machine.Layout.code_size image)) ]
        @ C.report_counts report);
      (match Hashtbl.find_opt firsts input.name with
      | None -> Hashtbl.replace firsts input.name (program, result, image, ref 1)
      | Some (_, _, _, uses) -> incr uses);
      Option.iter
        (fun c ->
          match Spans.ops (Telemetry.Collector.spans c) with
          | [ o ] ->
            traced_ops := o :: !traced_ops;
            C.push_op_times rows o;
            C.push rows "minic.minor_mw" (!minic_words /. 1e6);
            C.push rows "hlo.minor_mw" (!hlo_words /. 1e6);
            C.push rows "opt.routines" (C.counter c "opt.routines_optimized");
            C.push rows "hlo.cost_growth"
              (report.Hlo.Report.cost_after /. report.Hlo.Report.cost_before);
            let cs = Hlo.Summary_cache.stats () in
            let total = cs.Hlo.Summary_cache.hits + cs.Hlo.Summary_cache.misses in
            if total > 0 then
              C.push rows "hlo.summary_cache.hit_rate"
                (float_of_int cs.Hlo.Summary_cache.hits /. float_of_int total);
            let acc, all = C.inline_decisions c in
            inline_acc := !inline_acc + acc;
            inline_all := !inline_all + all
          | _ -> ())
        collector
  in
  let window ~trace = C.sequential ~cfg ~unit_size:n ~min_ops:n (op ~trace) in
  let untraced, rss_mb, traced = C.windows ~cfg window in
  (* Checks, once per distinct program and outside the timed windows:
     the laid-out image simulates to the interpreter's output on the
     pre-HLO program, and the HLO output validates. *)
  let bad_ops =
    Hashtbl.fold
      (fun name (program, result, image, uses) acc ->
        let problem =
          match Ucode.Validate.check_program result.Hlo.Driver.program with
          | _ :: _ as errors -> Some (Ucode.Validate.errors_to_string errors)
          | [] -> (
            match (Interp.run program, Machine.Sim.run image) with
            | expected, got ->
              if String.equal expected.Interp.output got.Machine.Sim.output then
                None
              else Some "simulated output differs from the interpreter's"
            | exception e -> Some (Printexc.to_string e))
        in
        match problem with
        | None -> acc
        | Some why ->
          Printf.eprintf "compile_mix: %s: %s\n%!" name why;
          acc + !uses)
      firsts 0
  in
  let sizes =
    Hashtbl.fold
      (fun _ (_, _, image, _) acc -> acc + Machine.Layout.code_size image)
      firsts 0
  in
  let hlo_totals =
    C.hlo_totals
      (Hashtbl.fold
         (fun _ (_, result, _, _) acc -> result.Hlo.Driver.report :: acc)
         firsts [])
  in
  let quality =
    if Hashtbl.length firsts = n then
      [ ("code_kinstr", float_of_int sizes /. 1000.0) ]
    else []
  in
  let layers =
    match traced with
    | None -> []
    | Some (tw, overhead) ->
      let nops = float_of_int (List.length tw.C.lat_ms) in
      List.map
        (fun name -> (name, C.row_median rows name))
        [ "op.ms"; "minic.ms"; "minic.minor_mw"; "opt.ms"; "opt.routines";
          "hlo.ms"; "hlo.minor_mw"; "hlo.clean.ms"; "hlo.outline.ms";
          "hlo.clone.ms"; "hlo.inline.ms"; "hlo.prune.ms";
          "hlo.summary_cache.hit_rate"; "hlo.cost_growth"; "machine.layout.ms" ]
      @ hlo_totals
      @ [ ("hlo.inline.accept_share",
           if !inline_all = 0 then 0.0
           else float_of_int !inline_acc /. float_of_int !inline_all);
          ("trace.unattributed_share",
           C.share_of_wall !traced_ops [ "op.self"; "other" ]);
          ("gc.minor_collections", float_of_int tw.C.minor_gcs /. nops);
          ("gc.major_collections", float_of_int tw.C.major_gcs /. nops);
          ("trace.overhead_share", overhead) ]
  in
  { C.setup_s; window = untraced; rss_mb; attempted = !attempted;
    failed = !failed + bad_ops; correct = !failed + bad_ops = 0; quality; layers;
    layer_scale = (match traced with Some (tw, _) -> tw.C.scale | None -> 1.0);
    det = quality @ hlo_totals }
