(* hlo_fuzz: differential fuzzing of the HLO pipeline.

   Samples random multi-module MiniC programs (the shared generator in
   test/prog_gen.ml, with indirect calls, arity mismatches and trapping
   operations enabled), random HLO configurations and metamorphic
   profile perturbations, and asks the semantic oracle whether the
   transformed program still behaves like the original.  Failures are
   bucketed by a stable hash of their failure class; the first
   manifestation of each bucket is delta-debugged to a minimal repro
   and written under --out:

     _build/fuzz/<bucket>/repro.mc       original failing program
     _build/fuzz/<bucket>/repro.cmd      replay command line
     _build/fuzz/<bucket>/reduced/...    minimized repro

   Replay re-runs one saved case:

     hlo_fuzz --replay repro.mc [config flags from repro.cmd]

   The corpus directory seeds every campaign with hand-written programs
   covering the generator's feature corners before random search
   starts. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Generous limits so that legitimate slowdowns (e.g. de-inlined deep
   call chains) don't read as divergence. *)
let interp_config =
  { Interp.default_config with Interp.fuel = 3_000_000; max_call_depth = 2_000 }

(* ------------------------------------------------------------------ *)
(* Case generation.                                                    *)

let list_corpus dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.remove_extension f,
             Oracle.Fuzz.parse_combined (read_file (Filename.concat dir f)) ))
  else []

let gen_mutation st =
  match QCheck.Gen.int_range 0 5 st with
  | 0 | 1 -> Oracle.Keep
  | 2 -> Oracle.Scale (QCheck.Gen.oneofl [ 0.0; 0.5; 2.0; 1000.0 ] st)
  | 3 -> Oracle.Zero
  | _ -> Oracle.Stale (QCheck.Gen.int_range 0 1_000_000 st)

(* [force_mode] restricts a campaign to one inline mode (--inline-mode);
   without it the random configurations sample all three. *)
let force check force_mode =
  match force_mode with
  | None -> check
  | Some m ->
    { check with
      Oracle.ck_config =
        { check.Oracle.ck_config with Hlo.Config.inline_mode = m } }

let gen_check ?force_mode st =
  force
    { Oracle.ck_config = Prog_gen.gen_hlo_config st;
      ck_mutation = gen_mutation st }
    force_mode

(* Case [i] is a pure function of (seed, i): campaigns are reproducible
   and a crash report's label pins the case exactly. *)
let case_gen ~seed ~corpus ?force_mode i =
  let st = Random.State.make [| 0x9e3779; seed; i |] in
  let n = List.length corpus in
  if i < n then
    let name, sources = List.nth corpus i in
    { Oracle.Fuzz.c_label = "corpus:" ^ name; c_sources = sources;
      c_check = force Oracle.default_check force_mode }
  else
    match if n > 0 then QCheck.Gen.int_range 0 3 st else 1 + QCheck.Gen.int_range 0 2 st with
    | 0 ->
      (* Corpus programs under random configs and profile mutations. *)
      let name, sources = QCheck.Gen.oneofl corpus st in
      { Oracle.Fuzz.c_label =
          Printf.sprintf "corpus:%s/seed=%d/i=%d" name seed i;
        c_sources = sources; c_check = gen_check ?force_mode st }
    | 1 ->
      (* Hot/cold-skewed programs: one dominant path plus cold
         branches, the shape region/demand splitting exists for. *)
      { Oracle.Fuzz.c_label = Printf.sprintf "skew:seed=%d/i=%d" seed i;
        c_sources =
          Prog_gen.render_shape (Prog_gen.gen_skewed_shape st);
        c_check = gen_check ?force_mode st }
    | _ ->
      { Oracle.Fuzz.c_label = Printf.sprintf "gen:seed=%d/i=%d" seed i;
        c_sources =
          Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st);
        c_check = gen_check ?force_mode st }

(* ------------------------------------------------------------------ *)
(* Modes.                                                              *)

let replay_case file config mutation =
  let case =
    { Oracle.Fuzz.c_label = "replay:" ^ file;
      c_sources = Oracle.Fuzz.parse_combined (read_file file);
      c_check =
        { Oracle.ck_config = config; ck_mutation = mutation } }
  in
  match Oracle.Fuzz.run_case ~interp_config case with
  | Oracle.Fuzz.Passed ->
    Fmt.pr "PASS: %s@." file;
    0
  | Oracle.Fuzz.Skipped reason ->
    Fmt.epr "SKIP: %s does not compile: %s@." file reason;
    2
  | Oracle.Fuzz.Failed f ->
    Fmt.pr "FAIL [bucket %s]: %s@." f.Oracle.Fuzz.f_bucket
      (match f.Oracle.Fuzz.f_kind with
      | Oracle.Fuzz.Mismatch { cls; detail } -> cls ^ "\n" ^ detail
      | Oracle.Fuzz.Crash { exn_class; detail } -> exn_class ^ "\n" ^ detail);
    1

let campaign seed iters time_budget out corpus_dir no_reduce force_mode =
  let corpus = list_corpus corpus_dir in
  Fmt.pr "hlo_fuzz: seed=%d corpus=%d programs (%s)%s@." seed
    (List.length corpus) corpus_dir
    (match force_mode with
    | None -> ""
    | Some m -> " mode=" ^ Policy.inline_mode_name m);
  let on_failure (f : Oracle.Fuzz.failure) =
    let dir = Filename.concat out f.Oracle.Fuzz.f_bucket in
    if not (Sys.file_exists dir) then begin
      Oracle.Fuzz.write_repro ~dir f;
      Fmt.pr "new bucket %s (%s); repro in %s@." f.Oracle.Fuzz.f_bucket
        f.Oracle.Fuzz.f_case.Oracle.Fuzz.c_label dir;
      if not no_reduce then begin
        let r = Oracle.Reduce.reduce ~interp_config f in
        Oracle.Fuzz.write_repro ~dir:(Filename.concat dir "reduced")
          r.Oracle.Reduce.r_failure;
        Fmt.pr "  reduced to %d statements in %d oracle runs@."
          r.Oracle.Reduce.r_lines r.Oracle.Reduce.r_tests
      end
    end
  in
  let stats =
    Oracle.Fuzz.campaign ~interp_config ~max_runs:iters ?time_budget
      ~on_failure
      ~gen:(case_gen ~seed ~corpus ?force_mode)
      ()
  in
  Fmt.pr "%a@." Oracle.Fuzz.pp_stats stats;
  if stats.Oracle.Fuzz.st_failures > 0 then 1 else 0

let main seed iters time_budget out corpus_dir chaos replay scope budget
    passes staging no_inline no_clone outline inline_mode
    region_cold_fraction max_ops no_reopt validate mutation no_reduce =
  match
    match chaos with
    | None -> Ok ()
    | Some name -> (
      match Hlo.Chaos.of_name name with
      | Some bug ->
        Hlo.Chaos.arm (Some bug);
        Ok ()
      | None ->
        Error
          (Printf.sprintf "unknown chaos bug %s (known: %s)" name
             (String.concat ", " (List.map Hlo.Chaos.name Hlo.Chaos.all))))
  with
  | Error msg -> `Error (false, msg)
  | Ok () -> (
    match replay with
    | Some file ->
      let config =
        { (Hlo.Config.with_scope Hlo.Config.default scope) with
          Hlo.Config.budget_percent = budget; pass_limit = passes;
          staging =
            (match staging with
            | Some s -> s
            | None -> Hlo.Config.default.Hlo.Config.staging);
          enable_inlining = not no_inline; enable_cloning = not no_clone;
          enable_outlining = outline; max_operations = max_ops;
          optimize_between_passes = not no_reopt;
          inline_mode =
            Option.value inline_mode
              ~default:Hlo.Config.default.Hlo.Config.inline_mode;
          region_cold_fraction =
            Option.value region_cold_fraction
              ~default:Hlo.Config.default.Hlo.Config.region_cold_fraction;
          validate }
      in
      `Ok (replay_case file config mutation)
    | None ->
      `Ok (campaign seed iters time_budget out corpus_dir no_reduce inline_mode))

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let seed =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed; case $(i,i) is a \
                pure function of (seed, $(i,i)).")

let iters =
  Arg.(value & opt int 500
       & info [ "iters" ] ~docv:"N" ~doc:"Maximum number of cases to run.")

let time_budget =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ] ~docv:"SECONDS"
           ~doc:"Stop starting new cases after $(docv) seconds.")

let out =
  Arg.(value & opt string "_build/fuzz"
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for per-bucket repro artifacts.")

let corpus_dir =
  Arg.(value & opt string "test/corpus"
       & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Seed corpus of $(b,.mc) programs (combined // module \
                 format); each runs first under the default check, then \
                 again under random configs.")

let chaos =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"BUG"
           ~doc:"Testing only: arm a deliberately seeded miscompilation \
                 bug in the transformation pipeline, to validate that the \
                 fuzzer catches it and the reducer shrinks it.")

let replay =
  Arg.(value & opt (some file) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay one saved case instead of fuzzing: run $(docv) \
                 through the oracle under the configuration given by the \
                 remaining flags (see the generated repro.cmd).")

let scope =
  Arg.(value
       & opt Cli.scope_conv Hlo.Config.CP
       & info [ "scope" ] ~docv:"SCOPE"
           ~doc:"(replay) Optimization scope: $(b,base), $(b,c), $(b,p), \
                 $(b,cp).")

let budget =
  Arg.(value & opt float 100.0
       & info [ "budget" ] ~docv:"PERCENT" ~doc:"(replay) Growth budget.")

let passes =
  Arg.(value & opt int 4
       & info [ "passes" ] ~docv:"N" ~doc:"(replay) Maximum pass pairs.")

let staging =
  Arg.(value
       & opt (some Cli.staging_conv) None
       & info [ "staging" ] ~docv:"FRACTIONS"
           ~doc:"(replay) Comma-separated cumulative budget fractions.")

let no_inline =
  Arg.(value & flag & info [ "no-inline" ] ~doc:"(replay) Disable inlining.")

let no_clone =
  Arg.(value & flag & info [ "no-clone" ] ~doc:"(replay) Disable cloning.")

let outline =
  Arg.(value & flag & info [ "outline" ] ~doc:"(replay) Enable outlining.")

let inline_mode =
  Arg.(value
       & opt (some Cli.inline_mode_conv) None
       & info [ "inline-mode" ] ~docv:"MODE"
           ~doc:"Inlining mode: $(b,whole), $(b,region) or $(b,demand).  \
                 In a campaign, restrict every case (corpus and \
                 generated) to $(docv); by default random configurations \
                 sample all three.  In replay, pin the saved case's \
                 mode.")

let region_cold_fraction =
  Arg.(value
       & opt (some float) None
       & info [ "region-cold-fraction" ] ~docv:"F"
           ~doc:"(replay) Region/demand coldness cut relative to the \
                 hottest block.")

let max_ops =
  Arg.(value & opt (some int) None
       & info [ "max-operations" ] ~docv:"N"
           ~doc:"(replay) Stop after N transformation operations.")

let no_reopt =
  Arg.(value & flag
       & info [ "no-reopt" ]
           ~doc:"(replay) Skip between-pass scalar re-optimization.")

(* Both spellings exist because repro.cmd lines are generated relative
   to Hlo.Config.default (validation off) while the fuzzer's own
   default is validation on. *)
let validate =
  Arg.(value
       & vflag true
           [ ( true,
               info [ "validate" ]
                 ~doc:"(replay) Re-validate IR after every stage (the \
                       default under the fuzzer, unlike in hloc)." );
             ( false,
               info [ "no-validate" ]
                 ~doc:"(replay) Skip per-stage IR validation." ) ])

let mutation =
  let parse s =
    match Oracle.mutation_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Fmt.string ppf (Oracle.mutation_to_string m) in
  Arg.(value
       & opt (conv (parse, print)) Oracle.Keep
       & info [ "mutation" ] ~docv:"MUT"
           ~doc:"(replay) Profile perturbation: $(b,keep), $(b,zero), \
                 $(b,scale:F), $(b,stale:N).  All are semantics-neutral; \
                 a behavior change under any of them is a bug.")

let no_reduce =
  Arg.(value & flag
       & info [ "no-reduce" ]
           ~doc:"Write raw repros only; skip delta-debugging new buckets.")

let cmd =
  let doc = "differential fuzzer for the HLO inlining/cloning pipeline" in
  let info = Cmd.info "hlo_fuzz" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const main $ seed $ iters $ time_budget $ out $ corpus_dir
            $ chaos $ replay $ scope $ budget $ passes $ staging $ no_inline
            $ no_clone $ outline $ inline_mode $ region_cold_fraction
            $ max_ops $ no_reopt $ validate $ mutation $ no_reduce))

let () = exit (Cmd.eval' cmd)
