type case = {
  c_label : string;
  c_sources : Minic.Compile.source list;
  c_check : Sem.check;
}

type failure_kind =
  | Mismatch of { cls : string; detail : string }
  | Crash of { exn_class : string; detail : string }

type failure = {
  f_case : case;
  f_kind : failure_kind;
  f_bucket : string;
}

type run_outcome = Passed | Skipped of string | Failed of failure

(* Bucketing must group manifestations of one bug across different
   programs and configs, so it hashes only the failure *class*: the
   oracle's mismatch class, or the crash's exception constructor — with
   pass numbers stripped so "clone pass 0" and "clone pass 3" land in
   one bucket. *)
let strip_digits s =
  String.concat ""
    (List.filter
       (fun part -> part <> "")
       (String.split_on_char ' '
          (String.map (fun c -> if c >= '0' && c <= '9' then ' ' else c) s)))

(* Region and demand mode run genuinely different transformation code,
   so a failure under them is a different bug until proven otherwise —
   the mode participates in the hash.  Whole mode hashes exactly as
   before this parameter existed, keeping historical bucket directories
   valid. *)
let bucket_of_kind ?(mode = Policy.Whole) kind =
  let tag =
    match mode with
    | Policy.Whole -> ""
    | m -> "mode=" ^ Policy.inline_mode_name m ^ "|"
  in
  match kind with
  | Mismatch { cls; _ } ->
    String.sub (Digest.to_hex (Digest.string (tag ^ "mismatch|" ^ cls))) 0 10
  | Crash { exn_class; _ } ->
    String.sub
      (Digest.to_hex (Digest.string (tag ^ "crash|" ^ strip_digits exn_class)))
      0 10

let kind_summary = function
  | Mismatch { cls; _ } -> "mismatch:" ^ cls
  | Crash { exn_class; _ } -> "crash:" ^ strip_digits exn_class

let kind_detail = function
  | Mismatch { detail; _ } | Crash { detail; _ } -> detail

let fail case kind =
  let mode = case.c_check.Sem.ck_config.Hlo.Config.inline_mode in
  Failed { f_case = case; f_kind = kind; f_bucket = bucket_of_kind ~mode kind }

let run_case ?(interp_config = Interp.default_config) (case : case) :
    run_outcome =
  match Minic.Compile.compile_program case.c_sources with
  | exception Minic.Diag.Compile_error ds ->
    Skipped (String.concat "; " (List.map Minic.Diag.to_string ds))
  | exception Ucode.Linker.Link_error msg -> Skipped ("link: " ^ msg)
  | program, _warnings -> (
    match Sem.check_transform ~interp_config case.c_check program with
    | { Sem.tr_verdict = None; _ } -> Passed
    | { Sem.tr_verdict = Some (cls, detail); tr_pre; tr_post; _ } ->
      fail case
        (Mismatch
           { cls;
             detail =
               Printf.sprintf "%s\n  pre:  %s\n  post: %s" detail
                 (Sem.outcome_to_string tr_pre)
                 (Sem.outcome_to_string tr_post) })
    | exception Hlo.Driver.Invalid_ir { stage; errors } ->
      fail case (Crash { exn_class = "invalid_ir:" ^ stage; detail = errors })
    | exception e ->
      fail case
        (Crash
           { exn_class = Printexc.exn_slot_name e;
             detail = Printexc.to_string e }))

(* ------------------------------------------------------------------ *)
(* Campaigns.                                                           *)

type stats = {
  st_runs : int;
  st_skipped : int;
  st_failures : int;
  st_buckets : (string * failure * int) list;
}

let campaign ?(interp_config = Interp.default_config) ?(max_runs = max_int)
    ?time_budget ?(on_failure = fun _ -> ()) ~(gen : int -> case) () : stats =
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) time_budget
  in
  let buckets : (string, failure * int ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let runs = ref 0 and skipped = ref 0 and failures = ref 0 in
  let past_deadline () =
    match deadline with
    | Some t -> Unix.gettimeofday () >= t
    | None -> false
  in
  let i = ref 0 in
  while !runs < max_runs && not (past_deadline ()) do
    let case = gen !i in
    incr i;
    incr runs;
    (match run_case ~interp_config case with
    | Passed -> ()
    | Skipped _ -> incr skipped
    | Failed f ->
      incr failures;
      (match Hashtbl.find_opt buckets f.f_bucket with
      | Some (_, n) -> incr n
      | None ->
        Hashtbl.replace buckets f.f_bucket (f, ref 1);
        order := f.f_bucket :: !order);
      on_failure f)
  done;
  { st_runs = !runs; st_skipped = !skipped; st_failures = !failures;
    st_buckets =
      List.rev_map
        (fun h ->
          let f, n = Hashtbl.find buckets h in
          (h, f, !n))
        !order }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "cases=%d skipped=%d failing=%d buckets=%d" s.st_runs
    s.st_skipped s.st_failures (List.length s.st_buckets);
  List.iter
    (fun (hash, f, n) ->
      Format.fprintf ppf "@\n  bucket %s  x%-4d %s  (first: %s)" hash n
        (kind_summary f.f_kind) f.f_case.c_label)
    s.st_buckets

(* ------------------------------------------------------------------ *)
(* Repro artifacts.                                                     *)

let module_marker = "// module "

let print_combined (sources : Minic.Compile.source list) =
  String.concat "\n"
    (List.map
       (fun (s : Minic.Compile.source) ->
         Printf.sprintf "%s%s\n%s" module_marker s.Minic.Compile.src_module
           (String.trim s.Minic.Compile.src_text))
       sources)
  ^ "\n"

let parse_combined (text : string) : Minic.Compile.source list =
  let lines = String.split_on_char '\n' text in
  let flush acc name rev_body =
    match name with
    | None -> acc  (* preamble before the first marker: must be blank *)
    | Some n ->
      Minic.Compile.source ~module_name:n
        (String.concat "\n" (List.rev rev_body))
      :: acc
  in
  let rec go acc name rev_body = function
    | [] -> List.rev (flush acc name rev_body)
    | line :: rest ->
      if
        String.length line >= String.length module_marker
        && String.sub line 0 (String.length module_marker) = module_marker
      then
        let next =
          String.trim
            (String.sub line
               (String.length module_marker)
               (String.length line - String.length module_marker))
        in
        go (flush acc name rev_body) (Some next) [] rest
      else go acc name (line :: rev_body) rest
  in
  go [] None [] lines

let mkdir_p dir =
  let rec up d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      up (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  up dir

let write_text path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc contents

let replay_command (case : case) =
  let ck = case.c_check in
  String.concat " "
    ([ "hlo_fuzz"; "--replay"; "repro.mc" ]
    @ Hlo.Config.to_flags ck.Sem.ck_config
    @ (match ck.Sem.ck_mutation with
      | Sem.Keep -> []
      | m -> [ "--mutation"; Sem.mutation_to_string m ])
    @ (match Hlo.Chaos.armed () with
      | Some b -> [ "--chaos"; Hlo.Chaos.name b ]
      | None -> []))

let write_repro ~dir (f : failure) =
  mkdir_p dir;
  write_text (Filename.concat dir "repro.mc") (print_combined f.f_case.c_sources);
  write_text (Filename.concat dir "repro.cmd") (replay_command f.f_case ^ "\n");
  write_text
    (Filename.concat dir "detail.txt")
    (Printf.sprintf "case: %s\nbucket: %s\nkind: %s\n\n%s\n" f.f_case.c_label
       f.f_bucket (kind_summary f.f_kind) (kind_detail f.f_kind))
