(* One run's result: the last line the run command prints, and one line
   of a result-set file (JSON lines) when [--out] is given.  The file
   line adds the workload, the trace flag and the provenance. *)

module J = Telemetry.Json

type provenance = {
  git_rev : string;
  nproc : int;
  ocaml : string;
  seed : int;
  seconds : int;
}

type t = {
  workload : string;
  trace : bool;
  provenance : provenance;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalogue order *)
}

(* The checkout may not be a git repository; read .git directly rather
   than start a process. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
    with _ -> ""
  in
  let head = String.trim (read ".git/HEAD") in
  let prefix = "ref: " in
  let plen = String.length prefix in
  if String.length head > plen && String.sub head 0 plen = prefix then
    let rev = String.trim (read (".git/" ^ String.sub head plen (String.length head - plen))) in
    if rev = "" then "unknown" else rev
  else if head = "" then "unknown"
  else head

let provenance ~seed ~seconds =
  { git_rev = git_rev (); nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version; seed; seconds }

let unit_of name =
  match Catalogue.find name with Some m -> m.Catalogue.unit_ | None -> "?"

(* Telemetry.Json prints floats to three decimals; results keep every
   digit, so they are written here.  Names, units and provenance
   strings never need escaping beyond quotes and backslashes. *)
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num x =
  if not (Float.is_finite x) then invalid_arg "Record.num: non-finite value";
  Printf.sprintf "%.17g" x

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_json metrics =
  obj
    (List.map
       (fun (name, v) ->
         (name, obj [ ("value", num v); ("unit", str (unit_of name)) ]))
       metrics)

let body r =
  [ ("correct", string_of_bool r.correct);
    ("attempted", string_of_int r.attempted);
    ("failed", string_of_int r.failed);
    ("metrics", metrics_json r.metrics) ]

(* The contract line: exactly these four keys. *)
let result_line r = obj (body r)

let provenance_json p =
  obj
    [ ("git_rev", str p.git_rev); ("nproc", string_of_int p.nproc);
      ("ocaml", str p.ocaml); ("seed", string_of_int p.seed);
      ("seconds", string_of_int p.seconds) ]

let to_line r =
  obj
    ([ ("workload", str r.workload); ("trace", string_of_bool r.trace);
       ("provenance", provenance_json r.provenance) ]
    @ body r)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (J.member name json) conv with
  | Some v -> Ok v
  | None -> Error ("missing or ill-typed field " ^ name)

let to_bool = function J.Bool b -> Some b | _ -> None
let to_int = function J.Int i -> Some i | _ -> None
let to_assoc = function J.Assoc l -> Some l | _ -> None

let of_line line =
  let* json = J.of_string line in
  let* workload = field "workload" J.to_string_opt json in
  let* trace = field "trace" to_bool json in
  let* p = field "provenance" Option.some json in
  let* git_rev = field "git_rev" J.to_string_opt p in
  let* nproc = field "nproc" to_int p in
  let* ocaml = field "ocaml" J.to_string_opt p in
  let* seed = field "seed" to_int p in
  let* seconds = field "seconds" to_int p in
  let* correct = field "correct" to_bool json in
  let* attempted = field "attempted" to_int json in
  let* failed = field "failed" to_int json in
  let* ms = field "metrics" to_assoc json in
  let* metrics =
    List.fold_right
      (fun (name, m) acc ->
        let* acc = acc in
        let* v = field "value" J.to_number m in
        Ok ((name, v) :: acc))
      ms (Ok [])
  in
  Ok
    { workload; trace; provenance = { git_rev; nproc; ocaml; seed; seconds };
      correct; attempted; failed; metrics }

let append path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (to_line r);
  output_char oc '\n'

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go acc (lineno + 1)
    | line -> (
      match of_line line with
      | Ok r -> go (r :: acc) (lineno + 1)
      | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
  in
  go [] 1
