(* perfbench: the repository benchmark.

     perfbench run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     perfbench compare [--bench BENCHMARK.json] OLD.jsonl NEW.jsonl

   [run] prints a provenance line, then as its last line the result
   object (correct, attempted, failed, metrics): the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  With --out it
   also appends the result, with its provenance, to a result-set file
   that [compare] reads.  Run it from the repository root. *)

open Perfbench_core

let usage () =
  prerr_string
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 [--out FILE]\n\
    \       perfbench compare [--bench BENCHMARK.json] OLD.jsonl NEW.jsonl\n";
  exit 2

let workloads =
  [ ("paper_ref", Paper_ref.run); ("compile_mix", Compile_mix.run);
    ("tune_eval", Tune_eval.run); ("serve_mix", Serve_mix.run) ]

(* A quality count a workload does not produce reads 1 on it; a layer
   it never enters reads 0.  Every time and rate is at the reference
   host speed (Calib): a per-layer time is scaled like the end-to-end
   ones, by its window's kernel timings. *)
let metrics ~trace (o : Common.outcome) =
  if trace then
    List.map
      (fun (m : Catalogue.metric) ->
        let v =
          if m.Catalogue.name = "failed_share" then
            float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted)
          else Option.value ~default:0.0 (List.assoc_opt m.Catalogue.name o.Common.layers)
        in
        let u = m.Catalogue.unit_ in
        let v =
          if u = "ms" then v *. o.Common.layer_scale
          else if String.ends_with ~suffix:"/s" u then v /. o.Common.layer_scale
          else v
        in
        (m.Catalogue.name, v))
      Catalogue.per_layer
  else
    let lat = Common.op_ms o.Common.window in
    List.map
      (fun (m : Catalogue.metric) ->
        let v =
          match m.Catalogue.name with
          | "setup_s" -> o.Common.setup_s
          | "op_ms_p50" -> Stats.percentile 0.5 lat
          | "op_ms_p90" -> Stats.tail_percentile 0.9 lat
          | "ops_per_s" -> Common.ops_per_s o.Common.window
          | "peak_rss_mb" -> o.Common.rss_mb
          | name -> Option.value ~default:1.0 (List.assoc_opt name o.Common.quality)
        in
        (m.Catalogue.name, v))
      Catalogue.end_to_end

let run args =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | _ -> usage ()
  in
  parse args;
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run_workload, Some seed, Some seconds, Some trace when seconds > 0 ->
    let outcome =
      Calib.with_calibrator @@ fun () ->
      Parallel.Pool.set_jobs 1;
      run_workload { Common.seed; seconds = float_of_int seconds; trace }
    in
    Common.guard_across_runs ~workload:!workload ~seed outcome.Common.det;
    let record =
      { Record.workload = !workload; trace;
        provenance = Record.provenance ~seed ~seconds;
        correct = outcome.Common.correct; attempted = outcome.Common.attempted;
        failed = outcome.Common.failed; metrics = metrics ~trace outcome }
    in
    Option.iter (fun path -> Record.append path record) !out;
    Printf.eprintf "perfbench: host speed scale %.4f (untraced window)\n"
      outcome.Common.window.Common.scale;
    print_endline ("provenance: " ^ Record.provenance_json record.Record.provenance);
    print_endline (Record.result_line record)
  | _ -> usage ()

let compare args =
  let bench, files =
    match args with
    | "--bench" :: b :: files -> (b, files)
    | files -> ("BENCHMARK.json", files)
  in
  match files with
  | [ old_file; new_file ] -> (
    match
      ( Compare.bounds_of_benchmark bench, Record.load old_file,
        Record.load new_file )
    with
    | Ok bounds, Ok old_runs, Ok new_runs ->
      if Compare.run ~bounds ~old_runs ~new_runs then exit 1
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("perfbench compare: " ^ e);
      exit 2)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
    try run args with
    | Common.Nondeterministic what ->
      prerr_endline ("perfbench: NONDETERMINISTIC deterministic count: " ^ what);
      exit 3)
  | "compare" :: args -> compare args
  | _ -> usage ()
