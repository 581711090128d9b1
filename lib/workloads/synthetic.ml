(** Synthetic large programs, for the paper's §3.5 claim:

    "A major challenge to effectively deploying aggressive inlining is
    the sheer size of production codes.  We have recently been
    experimenting with compiling the 500,000 line performance kernel of
    an important application program, and have been amazed to find that
    significant speedups like we see in some of the SPEC benchmarks can
    also be obtained in large production codes."

    [generate ~modules ~seed] builds a deterministic
    multi-module MiniC program with a layered call structure (functions
    call only strictly earlier functions, so the call graph is acyclic
    and every run terminates): a mix of exported and [static] routines,
    hot accessor-style leaves, mode-style parameters invoked with
    literals (clone fodder), per-module state arrays, and a [main] that
    drives every module from a loop.  Scaling [modules] scales program
    size without changing its character — the fixture behind the
    scaling study in {!Experiments}. *)

(* A tiny deterministic PRNG (no [Random]: runs must be reproducible
   across OCaml versions). *)
type rng = { mutable state : int64 }

let make_rng seed = { state = Int64.of_int (seed * 2 + 1) }

let next rng bound =
  rng.state <-
    Int64.add (Int64.mul rng.state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.rem (Int64.shift_right_logical rng.state 33) (Int64.of_int bound))

(** The name of function [k] of module [j]. *)
let fname j k = Printf.sprintf "fn_%d_%d" j k

let gen_function rng ~module_index ~func_index ~callables =
  let name = fname module_index func_index in
  let static = next rng 3 = 0 && callables <> [] in
  (* Body: a few statements over two params and the module array. *)
  let arr = Printf.sprintf "data_%d" module_index in
  let lines = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string lines (s ^ "\n  ")) fmt in
  add "var acc = p0 * %d + p1;" (1 + next rng 9);
  let nstmts = 2 + next rng 4 in
  for _ = 1 to nstmts do
    match next rng 6 with
    | 0 -> add "acc = acc + %s[(acc) & 63];" arr
    | 1 -> add "%s[(p0 + %d) & 63] = acc;" arr (next rng 64)
    | 2 when callables <> [] ->
      let callee, arity = List.nth callables (next rng (List.length callables)) in
      let args =
        List.init arity (fun i ->
            if next rng 3 = 0 then string_of_int (next rng 16)
            else if i = 0 then "acc"
            else "p1")
      in
      add "acc = acc + %s(%s);" callee (String.concat ", " args)
    | 3 -> add "if (acc & %d) { acc = acc * 3 + 1; } else { acc = acc - p1; }"
             (1 lsl next rng 4)
    | 4 -> add "acc = (acc ^ (acc >> %d)) & 1048575;" (1 + next rng 5)
    | _ -> add "acc = acc + %d;" (next rng 100)
  done;
  let text =
    Printf.sprintf "%sfunc %s(p0, p1) {\n  %sreturn acc & 1048575;\n}"
      (if static then "static " else "")
      name (Buffer.contents lines)
  in
  (* A static function is callable only from its own module; we keep
     things simple by exposing only exported functions across modules
     and everything within the module.  The returned "callable" entry
     carries that visibility. *)
  (text, (name, 2, static))

let funcs_per_module = 6

let gen_module rng ~module_index ~imported =
  let header = Printf.sprintf "global data_%d[64];" module_index in
  let texts = ref [ header ] in
  let local = ref [] in
  for k = 0 to funcs_per_module - 1 do
    (* Call earlier functions of this module, or exported earlier
       modules' functions. *)
    let callables =
      List.map (fun (n, a, _) -> (n, a)) !local
      @ List.map (fun (n, a) -> (n, a)) imported
    in
    let text, entry = gen_function rng ~module_index ~func_index:k ~callables in
    texts := text :: !texts;
    local := entry :: !local
  done;
  let exported =
    List.filter_map (fun (n, a, static) -> if static then None else Some (n, a))
      !local
  in
  (String.concat "\n\n" (List.rev !texts), exported)

(** Generate the whole program's sources. *)
let generate ?(seed = 1) ~modules () :
    Minic.Compile.source list =
  if modules < 1 then invalid_arg "Synthetic.generate: modules < 1";
  let rng = make_rng seed in
  let module_sources = ref [] in
  let imported = ref [] in
  for j = 0 to modules - 1 do
    let text, exported =
      gen_module rng ~module_index:j ~imported:!imported
    in
    module_sources := (Printf.sprintf "mod%d" j, text) :: !module_sources;
    imported := !imported @ exported
  done;
  (* main drives one exported entry point per module from a hot loop. *)
  let entry_calls =
    List.mapi
      (fun i (n, _) ->
        Printf.sprintf "    s = (s + %s(i + %d, s & 255)) %% 999983;" n i)
      (List.filteri (fun i _ -> i mod 3 = 0) !imported)
  in
  let main_text =
    Printf.sprintf
      "func main() {\n  var s = 0;\n  for (var i = 0; i < 400; i = i + 1) {\n%s\n  }\n  print_int(s);\n  return 0;\n}"
      (String.concat "\n" entry_calls)
  in
  List.rev_map
    (fun (name, text) -> Minic.Compile.source ~module_name:name text)
    ((Printf.sprintf "mainmod", main_text) :: !module_sources)

(** Generate and link. *)
let compile ?seed ~modules () : Ucode.Types.program =
  fst (Minic.Compile.compile_program (generate ?seed ~modules ()))
