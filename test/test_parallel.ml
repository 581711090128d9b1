(* The candidate-level parallel map and the summary cache.

   The contract under test: [Parallel.Pool.map_list] returns exactly
   what [List.map] returns at any degree, re-raising the lowest-index
   failure; and HLO compiles run as concurrent candidates — the way
   hlo_tune evaluates policies — produce IR and reports bit-identical
   to sequential ones, although they share the summary cache and the
   clone database.  Plus unit coverage for the content-hashed summary
   cache, including warm-vs-cold equivalence and the on-disk
   round-trip. *)

module U = Ucode.Types
module Pool = Parallel.Pool

let jobs_levels = [ 1; 2; 4; 8 ]

let with_jobs jobs f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* ------------------------------------------------------------------ *)
(* Pool unit tests.                                                    *)

let test_pool_matches_sequential () =
  let xs = List.init 257 Fun.id in
  let f x = (x * 7919) mod 1001 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map_list = List.map at jobs %d" jobs)
        (List.map f xs)
        (with_jobs jobs (fun () -> Pool.map_list f xs)))
    [ 1; 2 ]

exception Boom of int

(* Spin for roughly [n] units of work; keeps items busy for uneven
   times so executors finish out of index order. *)
let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + (k mod 7)
  done;
  !acc

let test_pool_first_error_by_index () =
  (* Items 3 and 17 fail; item 3 fails late, so a completion-order
     implementation would raise item 17's error.  The raised error must
     be item 3's — exactly what sequential List.map would do. *)
  let f x =
    if x = 3 then (ignore (spin 2_000_000 : int); raise (Boom x))
    else if x = 17 then raise (Boom x)
    else x
  in
  List.iter
    (fun jobs ->
      match with_jobs jobs (fun () -> Pool.map_list f (List.init 64 Fun.id)) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom n ->
        Alcotest.(check int)
          (Printf.sprintf "first failure by index at jobs %d" jobs) 3 n)
    [ 1; 2 ]

let test_pool_ambient_degree () =
  with_jobs 3 @@ fun () ->
  Alcotest.(check int) "set/get" 3 (Pool.get_jobs ());
  Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.get_jobs ())

(* Many items failing concurrently on every executor: the error raised
   must still be the lowest-index one, run after run. *)
let test_pool_concurrent_failures () =
  with_jobs 8 @@ fun () ->
  for round = 1 to 20 do
    let first = 5 + (round mod 7) in
    let f x = if x >= first then raise (Boom x) else x in
    match Pool.map_list f (List.init 128 Fun.id) with
    | _ -> Alcotest.fail "expected an exception"
    | exception Boom got ->
      Alcotest.(check int) "lowest failing index wins" first got
  done

(* Property: uneven per-item work (so executors claim items in varying
   orders) never changes results, at every jobs level. *)
let prop_map_list_determinism =
  QCheck.Test.make ~count:25
    ~name:"map_list = List.map, uneven work"
    QCheck.(pair (int_range 1 150) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let work = Array.init n (fun _ -> Random.State.int rng 300) in
      let f i = (i * 7919) + (spin work.(i) mod 13) in
      let xs = List.init n Fun.id in
      let expected = List.map f xs in
      List.iter
        (fun jobs ->
          if with_jobs jobs (fun () -> Pool.map_list f xs) <> expected then
            QCheck.Test.fail_report
              (Printf.sprintf "results differ at jobs=%d (n=%d)" jobs n))
        jobs_levels;
      true)

(* ------------------------------------------------------------------ *)
(* Warm summary cache.                                                 *)

(* The decision journal with wall-clock stripped: everything the
   optimizer decided, in order, without the one field that legitimately
   differs between runs. *)
type journal_entry = {
  j_kind : string;
  j_verdict : string;
  j_reason : string;
  j_subject : string;
  j_context : string;
  j_site : int;
  j_score : float;
  j_pass : int;
}

let journal_of collector =
  List.map
    (fun (d : Telemetry.Event.decision) ->
      { j_kind = Telemetry.Event.kind_name d.Telemetry.Event.d_kind;
        j_verdict = Telemetry.Event.verdict_name d.Telemetry.Event.d_verdict;
        j_reason =
          (match d.Telemetry.Event.d_verdict with
          | Telemetry.Event.Accepted -> ""
          | Telemetry.Event.Rejected r -> r);
        j_subject = d.Telemetry.Event.d_subject;
        j_context = d.Telemetry.Event.d_context;
        j_site = d.Telemetry.Event.d_site;
        j_score = d.Telemetry.Event.d_score;
        j_pass = d.Telemetry.Event.d_pass })
    (Telemetry.Collector.decisions collector)

type run_result = {
  rr_ir : string;          (* pretty-printed final program *)
  rr_report : string;      (* pretty-printed Report.t *)
  rr_journal : journal_entry list;
}

let hlo_outputs (res : Hlo.Driver.result) =
  ( Ucode.Pp.program_to_string res.Hlo.Driver.program,
    Fmt.str "%a" Hlo.Report.pp res.Hlo.Driver.report )

(* Compile sources → HLO with a private collector, returning
   everything the warm-cache contract covers.  [profile] is computed by
   the caller once per program. *)
let run_once ~(config : Hlo.Config.t) ~profile sources : run_result =
  let collector = Telemetry.Collector.create () in
  Telemetry.Collector.install collector;
  Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
  let program, _diags = Minic.Compile.compile_program sources in
  let rr_ir, rr_report = hlo_outputs (Hlo.Driver.run ~config ~profile program) in
  { rr_ir; rr_report; rr_journal = journal_of collector }

let profile_of program =
  match
    Interp.run
      ~config:{ Prog_gen.interp_config with Interp.profile = true }
      program
  with
  | r -> r.Interp.profile
  | exception Interp.Trap _ -> Ucode.Profile.empty

let profile_for ~(config : Hlo.Config.t) sources =
  if config.Hlo.Config.use_profile then
    profile_of (fst (Minic.Compile.compile_program sources))
  else Ucode.Profile.empty

let check_identical ~what (reference : run_result) (got : run_result) =
  let tag s = Printf.sprintf "%s: %s" what s in
  Alcotest.(check string) (tag "IR") reference.rr_ir got.rr_ir;
  Alcotest.(check string) (tag "report") reference.rr_report got.rr_report;
  if reference.rr_journal <> got.rr_journal then begin
    let show j =
      String.concat "\n"
        (List.map
           (fun e ->
             Printf.sprintf "%s %s%s %s<-%s site=%d score=%.6g pass=%d"
               e.j_kind e.j_verdict
               (if e.j_reason = "" then "" else "(" ^ e.j_reason ^ ")")
               e.j_subject e.j_context e.j_site e.j_score e.j_pass)
           j)
    in
    Alcotest.(check string)
      (tag "decision journal")
      (show reference.rr_journal) (show got.rr_journal)
  end

(* Property: a warm summary cache changes nothing but the hit counter. *)
let prop_warm_cache_equals_cold =
  QCheck.Test.make ~count:25 ~name:"warm summary cache equals cold"
    (QCheck.pair Prog_gen.arbitrary_sources (QCheck.make Prog_gen.gen_hlo_config))
    (fun (sources, config) ->
      let profile = profile_for ~config sources in
      Hlo.Summary_cache.clear ();
      let cold = run_once ~config ~profile sources in
      let warm = run_once ~config ~profile sources in
      check_identical ~what:"warm vs cold" cold warm;
      true)

(* ------------------------------------------------------------------ *)
(* The 14 paper workloads as concurrent candidates.                    *)

(* Two candidates (whole and region mode) compiled from one shared
   input program, as Policy_search evaluates a batch.  The journal is
   not compared: concurrent candidates share the process-global
   collector. *)
let workload_case (b : Workloads.Suite.benchmark) =
  let name = Printf.sprintf "%s bit-identical at jobs 1/2/4/8" b.Workloads.Suite.b_name in
  ( name,
    `Slow,
    fun () ->
      let sources = Workloads.Suite.sources b ~input:Workloads.Suite.Train in
      let program, _ = Minic.Compile.compile_program sources in
      let profile = profile_of program in
      let configs =
        List.map
          (fun inline_mode ->
            { Hlo.Config.default with Hlo.Config.validate = true; inline_mode })
          Policy.[ Whole; Region ]
      in
      let candidate config =
        hlo_outputs (Hlo.Driver.run ~config ~profile program)
      in
      let reference = List.map candidate configs in
      List.iter
        (fun jobs ->
          let got = with_jobs jobs (fun () -> Pool.map_list candidate configs) in
          List.iter2
            (fun (ir, report) (ir', report') ->
              let tag s =
                Printf.sprintf "%s: %s at jobs=%d" b.Workloads.Suite.b_name s jobs
              in
              Alcotest.(check string) (tag "IR") ir ir';
              Alcotest.(check string) (tag "report") report report')
            reference got)
        (List.filter (fun j -> j > 1) jobs_levels) )

(* ------------------------------------------------------------------ *)
(* Summary cache: body hashing and the per-version memo.              *)

let small_program () =
  Minic.Compile.compile_string
    "func helper(x) { for (var i = 0; i < 3; i = i + 1) { x = x + i; } \
     return x; } func main() { print_int(helper(4)); return 0; }"

let test_hash_ignores_identity () =
  let p = small_program () in
  let r = U.find_routine_exn p "helper" in
  let h = Ucode.Hash.routine_body_hash r in
  Alcotest.(check string)
    "renaming does not change the hash" h
    (Ucode.Hash.routine_body_hash { r with U.r_name = "other"; r_module = "m2" });
  Alcotest.(check string)
    "clone origin does not change the hash" h
    (Ucode.Hash.routine_body_hash { r with U.r_origin = U.Clone_of "helper" });
  (* Re-siting calls (what inlining copies do) keeps the hash... *)
  let resite (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Call c -> U.Call { c with U.c_site = c.U.c_site + 1000 }
            | i -> i)
          b.U.b_instrs }
  in
  let p_main = U.find_routine_exn p "main" in
  Alcotest.(check string)
    "site ids do not change the hash"
    (Ucode.Hash.routine_body_hash p_main)
    (Ucode.Hash.routine_body_hash
       { p_main with U.r_blocks = List.map resite p_main.U.r_blocks });
  (* ...but touching an instruction does not. *)
  let bump_const (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Const (d, k) -> U.Const (d, Int64.add k 1L)
            | i -> i)
          b.U.b_instrs }
  in
  let r' = { r with U.r_blocks = List.map bump_const r.U.r_blocks } in
  if Ucode.Hash.routine_body_hash r' = h then
    Alcotest.fail "changing a constant must change the hash"

(* A block is on a CFG cycle iff it is reachable from one of its own
   successors: a plain search per block, independent of the Tarjan the
   cache uses. *)
let cycles_by_search (r : U.routine) =
  let succs l = U.term_targets (U.find_block_exn r l).U.b_term in
  let reaches_itself l =
    let seen = Hashtbl.create 16 in
    let rec go = function
      | [] -> false
      | x :: _ when x = l -> true
      | x :: rest when Hashtbl.mem seen x -> go rest
      | x :: rest -> Hashtbl.replace seen x (); go (succs x @ rest)
    in
    go (succs l)
  in
  List.filter_map
    (fun (b : U.block) ->
      if reaches_itself b.U.b_id then Some b.U.b_id else None)
    r.U.r_blocks
  |> List.sort compare

(* Block 1 is a self-loop; blocks 0 and 2 are on no cycle. *)
let self_loop_routine =
  let block b_id b_term = { U.b_id; b_instrs = []; b_term } in
  { U.r_name = "spin"; r_module = "m"; r_params = [ 0 ];
    r_blocks =
      [ block 0 (U.Jump 1); block 1 (U.Branch (0, 1, 2));
        block 2 (U.Return None) ];
    r_next_reg = 1; r_next_label = 3; r_attrs = U.default_attrs;
    r_linkage = U.Exported; r_origin = U.From_source }

let test_cache_agrees_with_direct_computation () =
  Hlo.Summary_cache.clear ();
  let suite_routines b =
    let p, _ =
      Minic.Compile.compile_program
        (Workloads.Suite.sources b ~input:Workloads.Suite.Train)
    in
    p.U.p_routines
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "cached size = Size.routine_size"
        (Ucode.Size.routine_size r)
        (Hlo.Summary_cache.size r);
      Alcotest.(check (list int)) "cached cycles = blocks that reach themselves"
        (cycles_by_search r)
        (U.Int_set.elements (Hlo.Summary_cache.cycles r)))
    ((self_loop_routine :: (small_program ()).U.p_routines)
    @ List.concat_map suite_routines Workloads.Suite.all)

(* The per-version memo must not outlive [clear]: the same routine
   records miss again and their bodies re-enter the table. *)
let test_clear_forgets_versions () =
  let routines = (small_program ()).U.p_routines in
  let find_all () =
    List.iter (fun r -> ignore (Hlo.Summary_cache.find r)) routines
  in
  let check what ~hits ~misses =
    let s = Hlo.Summary_cache.stats () in
    Alcotest.(check (pair int int))
      what (hits, misses)
      (s.Hlo.Summary_cache.hits, s.Hlo.Summary_cache.misses);
    Alcotest.(check int)
      (what ^ ": entries") (List.length routines) s.Hlo.Summary_cache.entries
  in
  Hlo.Summary_cache.clear ();
  find_all ();
  find_all ();
  check "second lookups hit" ~hits:(List.length routines)
    ~misses:(List.length routines);
  Hlo.Summary_cache.clear ();
  find_all ();
  check "after clear, lookups miss" ~hits:0 ~misses:(List.length routines)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "deterministic map" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "first error by index" `Quick
            test_pool_first_error_by_index;
          Alcotest.test_case "ambient degree" `Quick test_pool_ambient_degree;
          Alcotest.test_case "concurrent failures: first by index" `Quick
            test_pool_concurrent_failures;
          to_alcotest prop_map_list_determinism ] );
      ( "determinism", [ to_alcotest prop_warm_cache_equals_cold ] );
      ( "workloads",
        List.map workload_case Workloads.Suite.all );
      ( "summary_cache",
        [ Alcotest.test_case "hash ignores identity" `Quick
            test_hash_ignores_identity;
          Alcotest.test_case "agrees with direct computation" `Quick
            test_cache_agrees_with_direct_computation;
          Alcotest.test_case "clear forgets routine versions" `Quick
            test_clear_forgets_versions ] ) ]
