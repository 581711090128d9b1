(* Self-tests for the benchmark's own code: its arithmetic, its seeded
   draws, its metric names against BENCHMARK.json, the result file
   format, the self-time attribution, the host-speed kernel and the
   failure classes. *)

open Perfbench_core
module J = Telemetry.Json

let float = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Arithmetic.                                                         *)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float "p50 of 1..100" 50.0 (Stats.percentile 0.5 xs);
  Alcotest.check float "p90 of 1..100" 90.0 (Stats.percentile 0.9 xs);
  Alcotest.check float "p100 is the max" 100.0 (Stats.percentile 1.0 xs);
  Alcotest.check float "single sample" 7.0 (Stats.percentile 0.5 [ 7.0 ]);
  (* With 100 samples the tail is the true p90: ten samples beyond. *)
  Alcotest.check float "tail p90, n=100" 90.0 (Stats.tail_percentile 0.9 xs);
  (* With 28 it backs off to the highest rank with ten beyond. *)
  let ys = List.init 28 (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail_percentile 0.9 ys in
  Alcotest.check float "tail, n=28" 18.0 t;
  Alcotest.(check int) "ten beyond" 10
    (List.length (List.filter (fun y -> y > t) ys))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name (a, b, c) xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check float (name ^ " q1") a q1;
    Alcotest.check float (name ^ " q2") b q2;
    Alcotest.check float (name ^ " q3") c q3
  in
  check "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float_of_int (i + 1)));
  check "two" (0.6875, 2.375, 4.0625) [ 3.5; 1.25 ];
  check "unsorted five" (1.5, 3.0, 4.5) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  check "doubling" (0.2, 0.8, 3.2) [ 0.1; 0.2; 0.4; 0.8; 1.6; 3.2; 6.4 ];
  Alcotest.check float "median" 3.0 (Stats.median [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.check float "spread" 1.0 (Stats.spread [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.check float "no spread" 0.0 (Stats.spread [ 2.0; 2.0; 2.0 ])

let test_geomean () =
  Alcotest.check float "1 and 4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.check float "2, 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check (Alcotest.float 1e-9) "ratios" 1.0
    (Stats.geomean [ 0.5; 2.0; 1.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* ------------------------------------------------------------------ *)
(* Seeded draws.                                                       *)

let cfg seed = { Common.seed; seconds = 1.0; trace = false }

let check_draw name draw =
  Alcotest.(check bool) (name ^ ": same seed, same draw") true
    (draw (cfg 7) 3 = draw (cfg 7) 3);
  Alcotest.(check bool) (name ^ ": another seed, another draw") false
    (draw (cfg 7) 3 = draw (cfg 8) 3);
  Alcotest.(check bool) (name ^ ": another unit, another draw") false
    (draw (cfg 7) 3 = draw (cfg 7) 4)

let test_draws () =
  check_draw "paper_ref cover" Paper_ref.cover;
  check_draw "compile_mix cover" (fun cfg k -> Common.cover cfg ~salt:2 17 k);
  check_draw "tune_eval cover" Tune_eval.cover;
  check_draw "serve_mix cover" Serve_mix.cover;
  let c = Paper_ref.cover (cfg 7) 0 in
  Alcotest.(check (list int)) "a cover is a permutation"
    (List.init (Array.length c) Fun.id)
    (List.sort compare (Array.to_list c))

(* ------------------------------------------------------------------ *)
(* Metric names.                                                       *)

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match J.of_string text with Ok j -> j | Error e -> Alcotest.fail e

let declared json key =
  List.map
    (fun m ->
      let str k = Option.bind (J.member k m) J.to_string_opt in
      (Option.value ~default:"" (str "name"), str "unit", str "better"))
    (Option.value ~default:[] (Option.bind (J.member key json) J.to_list_opt))

let test_names () =
  let all = Catalogue.end_to_end @ Catalogue.per_layer in
  List.iter
    (fun (m : Catalogue.metric) ->
      Alcotest.(check bool) ("valid name " ^ m.Catalogue.name) true
        (Catalogue.valid_name m.Catalogue.name))
    all;
  let names = List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let json = benchmark_json () in
  let ours metrics =
    List.map
      (fun (m : Catalogue.metric) ->
        ( m.Catalogue.name, Some m.Catalogue.unit_,
          Some
            (match m.Catalogue.better with
            | Catalogue.Higher -> "higher"
            | Catalogue.Lower -> "lower") ))
      metrics
  in
  let triple = Alcotest.(list (triple string (option string) (option string))) in
  Alcotest.check triple "end_to_end matches BENCHMARK.json"
    (ours Catalogue.end_to_end) (declared json "end_to_end");
  Alcotest.check triple "per_layer matches BENCHMARK.json"
    (ours Catalogue.per_layer) (declared json "per_layer");
  Alcotest.(check (list string)) "workloads match BENCHMARK.json"
    Catalogue.workloads
    (List.map (fun (n, _, _) -> n) (declared json "workloads"))

(* ------------------------------------------------------------------ *)
(* Result file format.                                                 *)

let test_round_trip () =
  let r =
    { Record.workload = "paper_ref"; trace = false;
      provenance =
        { Record.git_rev = "0123abc"; nproc = 2; ocaml = "5.1.1"; seed = 42;
          seconds = 12 };
      correct = true; attempted = 28; failed = 1;
      metrics =
        [ ("setup_s", 0.1 +. 0.2); ("op_ms_p50", 1e-7);
          ("ops_per_s", 12345.678901234567); ("code_kinstr", 28.0);
          ("failed_share", 0.0) ] }
  in
  (match Record.of_line (Record.to_line r) with
  | Ok back -> Alcotest.(check bool) "record round-trips exactly" true (back = r)
  | Error e -> Alcotest.fail e);
  let path = Filename.temp_file "perfbench" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r2 = { r with Record.trace = true; metrics = [ ("op.ms", 3.25) ] } in
  Record.append path r;
  Record.append path r2;
  match Record.load path with
  | Ok back -> Alcotest.(check bool) "result set round-trips" true (back = [ r; r2 ])
  | Error e -> Alcotest.fail e

let test_result_line () =
  let r =
    { Record.workload = "serve_mix"; trace = false;
      provenance = Record.provenance ~seed:1 ~seconds:1; correct = true;
      attempted = 3; failed = 0; metrics = [ ("setup_s", 0.5) ] }
  in
  match J.of_string (Record.result_line r) with
  | Ok (J.Assoc fields) ->
    Alcotest.(check (list string)) "exactly the contract's keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
  | Ok _ -> Alcotest.fail "not an object"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Self time.                                                          *)

let span ?(attrs = []) ?(domain = 0) name start dur =
  { Telemetry.Event.sp_name = name; sp_start_us = start; sp_dur_us = dur;
    sp_depth = 0; sp_domain = domain; sp_attrs = attrs }

let test_self_time () =
  let op = [ ("op", Telemetry.Event.Int 5) ] in
  let spans =
    [ span ~attrs:op "bench.op" 0.0 100.0;
      span "hlo.run" 10.0 60.0;
      span "hlo.clean" 12.0 20.0;
      span "opt.program" 13.0 18.0;
      span "hlo.inline" 40.0 10.0;
      span "machine.sim" 75.0 20.0;
      (* another domain's op, overlapping in time *)
      span ~domain:1 ~attrs:[ ("op", Telemetry.Event.Int 6) ] "bench.op" 5.0 50.0;
      span ~domain:1 "interp.run" 6.0 40.0;
      (* outside any op *)
      span "machine.sim" 200.0 5.0 ]
  in
  match Spans.ops spans with
  | [ a; b ] ->
    Alcotest.(check int) "op index" 5 a.Spans.op_index;
    Alcotest.check float "hlo self" 30.0 (Spans.self_us a "hlo");
    Alcotest.check float "clean self" 2.0 (Spans.self_us a "hlo.clean");
    Alcotest.check float "opt self" 18.0 (Spans.self_us a "opt");
    Alcotest.check float "inline self" 10.0 (Spans.self_us a "hlo.inline");
    Alcotest.check float "sim self" 20.0 (Spans.self_us a "machine.sim");
    Alcotest.check float "op's own" 20.0 (Spans.self_us a "op.self");
    Alcotest.check float "layers account for the wall" (Spans.wall_us a)
      (Spans.accounted_us a);
    Alcotest.(check int) "second op" 6 b.Spans.op_index;
    Alcotest.check float "other domain" 40.0 (Spans.self_us b "interp.run");
    Alcotest.check float "other domain accounted" 50.0 (Spans.accounted_us b)
  | ops -> Alcotest.failf "expected two ops, got %d" (List.length ops)

(* ------------------------------------------------------------------ *)
(* Host speed and failure classes.                                     *)

let test_calib () =
  Alcotest.check float "slower host, smaller scale" 0.5
    (Calib.scale [ 2.0 *. Calib.reference_s; 2.0 *. Calib.reference_s ]);
  Calib.with_calibrator (fun () ->
      let t = Calib.sample () in
      Alcotest.(check bool) "the kernel takes time" true (t > 0.0 && t < 10.0));
  Alcotest.check_raises "no calibrator after stop"
    (Invalid_argument "Calib.sample: no calibrator") (fun () ->
      ignore (Calib.sample ()))

let test_known_defect () =
  Alcotest.(check bool) "the outline crash" true
    (Tune_eval.known_defect
       "driver: Invalid_argument(\"add_routine: duplicate main__cold3\")");
  Alcotest.(check bool) "another crash" false
    (Tune_eval.known_defect "driver: Not_found");
  Alcotest.(check bool) "a rejection" false
    (Tune_eval.known_defect "oracle: output differs")

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "geomean" `Quick test_geomean ] );
      ("draws", [ Alcotest.test_case "seeded draws" `Quick test_draws ]);
      ("names", [ Alcotest.test_case "metric names" `Quick test_names ]);
      ( "records",
        [ Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "result line" `Quick test_result_line ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("calib", [ Alcotest.test_case "host speed" `Quick test_calib ]);
      ("failures", [ Alcotest.test_case "known defect" `Quick test_known_defect ]) ]
