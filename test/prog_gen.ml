(* Random-program generation shared by the property suites
   (test_properties.ml, test_oracle.ml), the parallel determinism suite
   (test_parallel.ml) and the differential fuzzer (bin/hlo_fuzz).

   Programs are generated as a structured [shape] — a list of function
   records plus a main body — so qcheck can shrink them (drop
   statements, drop whole functions) before rendering to MiniC text.
   With the default {!tame_opts} programs are always terminating and
   trap-free by construction; {!wild_opts} additionally exercises
   indirect calls through function handles, direct calls with arity
   mismatches, trapping operations and deeper nesting. *)

module U = Ucode.Types
module Gen = QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Feature switches.                                                   *)

type shape_opts = {
  so_indirect : bool;
      (** handle-typed locals ([var h2 = f0;]) called indirectly; the
          handle is used *only* in call position — printing or storing
          one would not survive transformation, since handles are
          per-run routine indices *)
  so_mismatch : bool;
      (** direct calls with one argument too many / too few (a warning;
          the convention pads with zeros or drops extras) *)
  so_traps : bool;
      (** unguarded division, unmasked array indexing, conditional
          [abort()], indirect calls with wrong arity *)
  so_nested : bool;  (** deeper statement nesting and bigger bodies *)
}

let tame_opts =
  { so_indirect = false; so_mismatch = false; so_traps = false;
    so_nested = false }

let wild_opts =
  { so_indirect = true; so_mismatch = true; so_traps = true;
    so_nested = true }

(* ------------------------------------------------------------------ *)
(* Shapes.                                                             *)

type fn = {
  fn_name : string;
  fn_static : bool;
  fn_params : string list;
  fn_body : string list;  (* statements *)
  fn_ret : string;        (* the return expression *)
}

type shape = {
  sh_funcs : fn list;     (* acyclic: each may only call earlier ones *)
  sh_main : string list;  (* main body statements *)
}

let render_fn f =
  Printf.sprintf "%s func %s(%s) { %s return %s; }"
    (if f.fn_static then "static" else "")
    f.fn_name
    (String.concat ", " f.fn_params)
    (String.concat " " f.fn_body)
    f.fn_ret

(* The library's globals are public so both modules touch them; main
   ends by printing the shared state, making most computation
   observable. *)
let render_shape (sh : shape) : Minic.Compile.source list =
  let lib =
    "public global ga[16];\npublic global gs;\npublic global gt = 3;\n"
    ^ String.concat "\n" (List.map render_fn sh.sh_funcs)
  in
  let main =
    Printf.sprintf
      "func main() { %s print_int(gs); print_int(gt); print_int(ga[3]); \
       return 0; }"
      (String.concat " " sh.sh_main)
  in
  [ Minic.Compile.source ~module_name:"lib" lib;
    Minic.Compile.source ~module_name:"app" main ]

(* ------------------------------------------------------------------ *)
(* Random generation.                                                  *)

(* State threaded through generation: a name supply. *)
type genv = {
  mutable next_local : int;
  funcs_below : (string * int) list;  (* callable (name, arity) *)
  mutable locals : string list;       (* value locals, in scope *)
  mutable handles : (string * int) list;
      (* handle locals (name, target arity) — call position only *)
}

(* Int64.min_int has no literal form (the lexer sees MINUS applied to
   an out-of-range magnitude, like C); spell it arithmetically. *)
let const_to_string k =
  if Int64.equal k Int64.min_int then "(0 - 9223372036854775807 - 1)"
  else Printf.sprintf "%Ld" k

let small_const =
  Gen.oneof
    [ Gen.map Int64.of_int (Gen.int_range (-100) 100);
      Gen.oneofl [ 0L; 1L; 2L; 7L; 255L; 65535L; -1L; Int64.max_int;
                   Int64.min_int ] ]

let rec gen_expr opts env depth st =
  let atom =
    Gen.oneof
      ([ Gen.map const_to_string small_const ]
      @ (if env.locals = [] then [] else [ Gen.oneofl env.locals ])
      @ [ Gen.return "gs"; Gen.return "gt" ])
  in
  if depth <= 0 then atom st
  else
    match Gen.int_range 0 9 st with
    | 0 | 1 ->
      Printf.sprintf "(%s %s %s)"
        (gen_expr opts env (depth - 1) st)
        (Gen.oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] st)
        (gen_expr opts env (depth - 1) st)
    | 2 ->
      if opts.so_traps && Gen.int_range 0 4 st = 0 then
        (* Unguarded: traps whenever the divisor evaluates to zero. *)
        Printf.sprintf "(%s %s %s)"
          (gen_expr opts env (depth - 1) st)
          (Gen.oneofl [ "/"; "%" ] st)
          (gen_expr opts env (depth - 1) st)
      else
        (* Division with a guarded positive divisor. *)
        Printf.sprintf "(%s %s ((%s & 1023) + 1))"
          (gen_expr opts env (depth - 1) st)
          (Gen.oneofl [ "/"; "%" ] st)
          (gen_expr opts env (depth - 1) st)
    | 3 ->
      Printf.sprintf "(%s %s (%s & 15))"
        (gen_expr opts env (depth - 1) st)
        (Gen.oneofl [ "<<"; ">>" ] st)
        (gen_expr opts env (depth - 1) st)
    | 4 ->
      Printf.sprintf "(%s %s %s)"
        (gen_expr opts env (depth - 1) st)
        (Gen.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] st)
        (gen_expr opts env (depth - 1) st)
    | 5 ->
      Printf.sprintf "(%s %s %s)"
        (gen_expr opts env (depth - 1) st)
        (Gen.oneofl [ "&&"; "||" ] st)
        (gen_expr opts env (depth - 1) st)
    | 6 -> Printf.sprintf "(%s(%s))" (Gen.oneofl [ "-"; "!" ] st)
             (gen_expr opts env (depth - 1) st)
    | 7 ->
      if opts.so_traps && Gen.int_range 0 5 st = 0 then
        (* Unmasked: traps when the index leaves [0, 16). *)
        Printf.sprintf "ga[(%s)]" (gen_expr opts env (depth - 1) st)
      else Printf.sprintf "ga[(%s) & 15]" (gen_expr opts env (depth - 1) st)
    | 8 when env.funcs_below <> [] ->
      let name, arity = Gen.oneofl env.funcs_below st in
      let args =
        List.init arity (fun _ -> gen_expr opts env (depth - 1) st)
      in
      Printf.sprintf "%s(%s)" name (String.concat ", " args)
    | _ -> atom st

(* A direct-call argument list, possibly off by one in either
   direction when mismatches are enabled. *)
let gen_call_args opts env arity st =
  let n =
    if opts.so_mismatch then
      match Gen.int_range 0 3 st with
      | 0 -> arity + 1
      | 1 -> max 0 (arity - 1)
      | _ -> arity
    else arity
  in
  List.init n (fun _ -> gen_expr opts env 2 st)

let rec gen_stmts opts env ~depth ~fuel st : string list =
  if fuel <= 0 then []
  else
    let stmt =
      match Gen.int_range 0 (if opts.so_indirect then 12 else 9) st with
      | 0 | 1 ->
        let name = Printf.sprintf "t%d" env.next_local in
        env.next_local <- env.next_local + 1;
        let s = Printf.sprintf "var %s = %s;" name (gen_expr opts env 2 st) in
        env.locals <- name :: env.locals;
        [ s ]
      | 2 when env.locals <> [] ->
        [ Printf.sprintf "%s = %s;" (Gen.oneofl env.locals st)
            (gen_expr opts env 2 st) ]
      | 3 ->
        [ Printf.sprintf "%s = %s;" (Gen.oneofl [ "gs"; "gt" ] st)
            (gen_expr opts env 2 st) ]
      | 4 ->
        [ Printf.sprintf "ga[(%s) & 15] = %s;" (gen_expr opts env 1 st)
            (gen_expr opts env 2 st) ]
      | 5 when depth > 0 ->
        let saved = env.locals and saved_h = env.handles in
        let then_ = gen_stmts opts env ~depth:(depth - 1) ~fuel:(fuel / 2) st in
        env.locals <- saved;
        env.handles <- saved_h;
        let else_ = gen_stmts opts env ~depth:(depth - 1) ~fuel:(fuel / 2) st in
        env.locals <- saved;
        env.handles <- saved_h;
        [ Printf.sprintf "if (%s) { %s } else { %s }" (gen_expr opts env 2 st)
            (String.concat " " then_) (String.concat " " else_) ]
      | 6 when depth > 0 ->
        (* A loop bounded by construction; the body may break early.
           With [so_nested] the recursion depth below allows loops in
           loops in loops. *)
        let i = Printf.sprintf "i%d" env.next_local in
        env.next_local <- env.next_local + 1;
        let bound = Gen.int_range 1 5 st in
        let saved = env.locals and saved_h = env.handles in
        env.locals <- i :: env.locals;
        let body = gen_stmts opts env ~depth:(depth - 1) ~fuel:(fuel / 2) st in
        let break_ =
          if Gen.bool st then
            Printf.sprintf "if (%s) { break; }" (gen_expr opts env 1 st)
          else ""
        in
        env.locals <- saved;
        env.handles <- saved_h;
        [ Printf.sprintf "for (var %s = 0; %s < %d; %s = %s + 1) { %s %s }" i i
            bound i i
            (String.concat " " body)
            break_ ]
      | 7 -> [ Printf.sprintf "print_int(%s);" (gen_expr opts env 2 st) ]
      | 8 when env.funcs_below <> [] ->
        let name, arity = Gen.oneofl env.funcs_below st in
        let args = gen_call_args opts env arity st in
        [ Printf.sprintf "%s(%s);" name (String.concat ", " args) ]
      | 10 when env.funcs_below <> [] ->
        (* Take a function's address into a handle local.  The handle
           is only ever *called* (below); its numeric value is a
           per-run routine index, so printing or storing it would make
           the program's output transformation-dependent. *)
        let name, arity = Gen.oneofl env.funcs_below st in
        let h = Printf.sprintf "h%d" env.next_local in
        env.next_local <- env.next_local + 1;
        env.handles <- (h, arity) :: env.handles;
        [ Printf.sprintf "var %s = %s;" h name ]
      | 11 | 12 when env.handles <> [] ->
        let h, arity = Gen.oneofl env.handles st in
        let arity =
          (* Wrong arity through a handle traps at run time. *)
          if opts.so_traps && Gen.int_range 0 5 st = 0 then arity + 1
          else arity
        in
        let args = List.init arity (fun _ -> gen_expr opts env 2 st) in
        [ Printf.sprintf "gs = %s(%s);" h (String.concat ", " args) ]
      | 9 when opts.so_traps && Gen.int_range 0 3 st = 0 ->
        [ Printf.sprintf "if ((%s) == 77) { abort(); }"
            (gen_expr opts env 2 st) ]
      | _ -> [ Printf.sprintf "gt = gt + %s;" (gen_expr opts env 1 st) ]
    in
    stmt @ gen_stmts opts env ~depth ~fuel:(fuel - 1) st

(* One function definition; may only call [funcs_below] (acyclic call
   graph guarantees termination). *)
let gen_fn opts ~name ~funcs_below ~static st : fn =
  let arity = Gen.int_range 0 3 st in
  let params = List.init arity (fun i -> Printf.sprintf "p%d" i) in
  let env = { next_local = 0; funcs_below; locals = params; handles = [] } in
  let depth = if opts.so_nested then 3 else 2 in
  let body = gen_stmts opts env ~depth ~fuel:(Gen.int_range 2 6 st) st in
  { fn_name = name; fn_static = static; fn_params = params; fn_body = body;
    fn_ret = gen_expr opts env 2 st }

let gen_shape opts : shape Gen.t =
 fun st ->
  let nfuncs = Gen.int_range 1 4 st in
  let rec build i acc_defs acc_callable =
    if i >= nfuncs then (List.rev acc_defs, acc_callable)
    else
      let name = Printf.sprintf "f%d" i in
      (* Some functions are module-local: later lib functions may call
         them (or take their address), but main cannot name them — so a
         static reachable only through a handle is prunable-looking
         while actually live. *)
      let static = opts.so_indirect && Gen.int_range 0 3 st = 0 in
      let fn = gen_fn opts ~name ~funcs_below:acc_callable ~static st in
      build (i + 1) (fn :: acc_defs) ((name, List.length fn.fn_params) :: acc_callable)
  in
  let funcs, callable = build 0 [] [] in
  let public_callable =
    List.filter
      (fun (name, _) ->
        List.exists (fun f -> f.fn_name = name && not f.fn_static) funcs)
      callable
  in
  let env =
    { next_local = 0; funcs_below = public_callable; locals = []; handles = [] }
  in
  let depth = if opts.so_nested then 4 else 3 in
  let fuel = Gen.int_range 4 (if opts.so_nested then 12 else 10) st in
  let body = gen_stmts opts env ~depth ~fuel st in
  let final = Printf.sprintf "print_int(%s);" (gen_expr opts env 2 st) in
  { sh_funcs = funcs; sh_main = body @ [ final ] }

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                          *)

let shape_compiles sh =
  match Minic.Compile.compile_program (render_shape sh) with
  | _ -> true
  | exception Minic.Diag.Compile_error _ -> false
  | exception Ucode.Linker.Link_error _ -> false

let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l

(* Structural shrinking: drop whole functions, main statements, or
   statements inside one function.  Candidates that no longer compile
   (a dropped [var] with live uses, a dropped function with live
   callers) are filtered out rather than repaired. *)
let shrink_shape sh yield =
  let yield sh' = if shape_compiles sh' then yield sh' in
  QCheck.Shrink.list_spine sh.sh_funcs (fun fs ->
      yield { sh with sh_funcs = fs });
  QCheck.Shrink.list_spine sh.sh_main (fun m -> yield { sh with sh_main = m });
  List.iteri
    (fun i f ->
      QCheck.Shrink.list_spine f.fn_body (fun body ->
          yield
            { sh with
              sh_funcs = replace_nth i { f with fn_body = body } sh.sh_funcs }))
    sh.sh_funcs

let print_sources (sources : Minic.Compile.source list) =
  String.concat "\n---\n"
    (List.map
       (fun s ->
         Printf.sprintf "// module %s\n%s" s.Minic.Compile.src_module
           s.Minic.Compile.src_text)
       sources)

let arbitrary_shape opts =
  QCheck.make
    ~print:(fun sh -> print_sources (render_shape sh))
    ~shrink:shrink_shape (gen_shape opts)

(* ------------------------------------------------------------------ *)
(* Hot/cold-skewed shapes (region/demand inlining fodder).             *)

(* One dominant path: main drives every library function [trip] times
   from a counting loop, and each function guards a fat side path
   behind a comparison only the last few iterations satisfy.  The
   training profile then shows a hot spine plus blocks executed a
   handful of times — cold under the region/demand hottest-block basis
   yet still reached at run time (the side path writes the public
   globals and array), exactly the shape whose handling distinguishes
   the three inline modes. *)
let gen_skewed_shape : shape Gen.t =
 fun st ->
  let nfuncs = Gen.int_range 1 3 st in
  let trip = Gen.int_range 30 60 st in
  let rec build i acc callable =
    if i >= nfuncs then (List.rev acc, callable)
    else begin
      let name = Printf.sprintf "f%d" i in
      let env =
        { next_local = 0; funcs_below = callable; locals = [ "p0" ];
          handles = [] }
      in
      let hot = gen_stmts tame_opts env ~depth:1 ~fuel:(Gen.int_range 1 3 st) st in
      let threshold = trip - Gen.int_range 2 8 st in
      let cold =
        [ Printf.sprintf "gs = gs + p0 * %d;" (Gen.int_range 2 9 st);
          Printf.sprintf "gt = (gt * 2 + %s) & 65535;"
            (gen_expr tame_opts env 1 st);
          Printf.sprintf "ga[(p0) & 15] = ga[(%s) & 15] + gt;"
            (gen_expr tame_opts env 1 st);
          Printf.sprintf "gs = gs - (gt & %d);" (Gen.int_range 1 255 st) ]
      in
      let body =
        hot
        @ [ Printf.sprintf "if (p0 > %d) { %s } else { }" threshold
              (String.concat " " cold) ]
      in
      let fn =
        { fn_name = name; fn_static = false; fn_params = [ "p0" ];
          fn_body = body; fn_ret = gen_expr tame_opts env 1 st }
      in
      build (i + 1) (fn :: acc) ((name, 1) :: callable)
    end
  in
  let funcs, callable = build 0 [] [] in
  let calls =
    List.map (fun (name, _) -> Printf.sprintf "gs = gs + %s(i0);" name)
      (List.rev callable)
  in
  { sh_funcs = funcs;
    sh_main =
      [ Printf.sprintf "for (var i0 = 0; i0 < %d; i0 = i0 + 1) { %s }" trip
          (String.concat " " calls) ] }

let arbitrary_skewed_shape =
  QCheck.make
    ~print:(fun sh -> print_sources (render_shape sh))
    ~shrink:shrink_shape gen_skewed_shape

(* ------------------------------------------------------------------ *)
(* Rendered-program generators (the pre-existing interface).           *)

let gen_program_sources st : Minic.Compile.source list =
  render_shape (gen_shape tame_opts st)

let gen_program : U.program Gen.t =
 fun st ->
  let sources = gen_program_sources st in
  try fst (Minic.Compile.compile_program sources)
  with Minic.Diag.Compile_error ds ->
    failwith
      ("generator produced an invalid program:\n"
      ^ String.concat "\n" (List.map Minic.Diag.to_string ds)
      ^ "\n--- sources ---\n"
      ^ String.concat "\n---\n"
          (List.map (fun s -> s.Minic.Compile.src_text) sources))

let arbitrary_program =
  QCheck.make ~print:(fun p -> Ucode.Pp.program_to_string p) gen_program

let arbitrary_sources =
  QCheck.make ~print:print_sources gen_program_sources

(* ------------------------------------------------------------------ *)
(* Outcome helpers.                                                    *)

(* Run in the interpreter; normalize traps (possible only via fuel on
   pathological nests, which we treat as equivalent outcomes). *)
let interp_config =
  { Interp.default_config with Interp.fuel = 3_000_000; max_call_depth = 2_000 }

let interp_outcome p =
  match Interp.run ~config:interp_config p with
  | r -> r.Interp.output
  | exception Interp.Trap (t, _) -> "<trap: " ^ Interp.trap_message t ^ ">"

let sim_outcome p =
  let config =
    { Machine.Sim.default_config with Machine.Sim.max_instructions = 30_000_000 }
  in
  match Machine.Sim.run ~config (Machine.Layout.build p) with
  | r -> r.Machine.Sim.output
  | exception Machine.Sim.Trap (t, _) ->
    "<trap: " ^ Machine.Sim.trap_message t ^ ">"

(* Traps of the two engines have different messages; compare modulo
   trap-ness only when both trap. *)
let same_outcome a b =
  let is_trap s = String.length s >= 6 && String.sub s 0 6 = "<trap:" in
  if is_trap a || is_trap b then is_trap a && is_trap b else String.equal a b

(* ------------------------------------------------------------------ *)
(* Random HLO configurations (always validating).                      *)

(* A random staging schedule: nondecreasing cumulative budget
   fractions, ending at 1.0 as Config requires. *)
let gen_staging st =
  let n = Gen.int_range 1 4 st in
  let cuts =
    List.init (n - 1) (fun _ -> float_of_int (Gen.int_range 1 99 st) /. 100.0)
  in
  List.sort compare cuts @ [ 1.0 ]

let gen_hlo_config : Hlo.Config.t Gen.t =
 fun st ->
  let scope =
    Gen.oneofl [ Hlo.Config.Base; Hlo.Config.C; Hlo.Config.P; Hlo.Config.CP ] st
  in
  let base =
    { Hlo.Config.default with
      Hlo.Config.budget_percent = float_of_int (Gen.int_range 0 400 st);
      pass_limit = Gen.int_range 1 5 st;
      staging = gen_staging st;
      enable_inlining = Gen.bool st;
      enable_cloning = Gen.bool st;
      enable_outlining = Gen.bool st;
      max_operations = (if Gen.bool st then Some (Gen.int_range 0 20 st) else None);
      optimize_between_passes = Gen.bool st;
      inline_mode =
        Gen.oneofl [ Policy.Whole; Policy.Whole; Policy.Region; Policy.Demand ]
          st;
      region_cold_fraction = float_of_int (Gen.int_range 5 95 st) /. 100.0;
      validate = true }
  in
  Hlo.Config.with_scope base scope

(* ------------------------------------------------------------------ *)
(* Scale-sized deterministic programs (perfbench's compile_mix).       *)

(* The qcheck generators above make *small* adversarial programs for
   shrinking; the scale generator makes *big* boring ones — thousands
   of routines across dozens of modules — to measure how compile time
   grows with program size.  Everything is a pure function of (shape,
   routines, seed): the PRNG is the same LCG as
   lib/workloads/synthetic.ml, so the generated text — and therefore
   the compiled IR — is bit-identical across runs. *)

module Scale = struct
  type shape =
    | Wide  (** flat call graph: many leaves behind one hub per module *)
    | Deep  (** one program-long call chain threaded through modules *)
    | Scc   (** mutually recursive triples, bounded by a counter param *)

  let shape_name = function Wide -> "wide" | Deep -> "deep" | Scc -> "scc"
  let all_shapes = [ Wide; Deep; Scc ]

  let funcs_per_module = 25

  type rng = { mutable state : int64 }

  let make_rng seed =
    { state = Int64.logxor 0x9E3779B97F4A7C15L (Int64.of_int (seed + 1)) }

  let next rng bound =
    rng.state <-
      Int64.add (Int64.mul rng.state 6364136223846793005L)
        1442695040888963407L;
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical rng.state 33) (Int64.of_int bound))

  (* List.init with a guaranteed left-to-right evaluation order (the
     stdlib leaves it unspecified, and [f] advances the PRNG). *)
  let tabulate n f =
    let rec go i = if i >= n then [] else let x = f i in x :: go (i + 1) in
    go 0

  let ops = [| "+"; "-"; "*"; "&"; "|"; "^" |]

  (* A run of arithmetic statements over [params] plus fresh temps, and
     a result expression over whatever ended up in scope.  Constant
     operands and temp-to-temp chains give constprop/copyprop/cse real
     work in every body. *)
  let arith rng ~params ~n =
    let scope = ref (List.rev params) in
    let atom () =
      match next rng 4 with
      | 0 -> string_of_int (1 + next rng 99)
      | 1 -> "gt"
      | _ -> (
        match !scope with
        | [] -> string_of_int (1 + next rng 99)
        | l -> List.nth l (next rng (List.length l)))
    in
    let stmts =
      tabulate n (fun i ->
          let t = Printf.sprintf "t%d" i in
          let s =
            Printf.sprintf "var %s = (%s %s %s);" t (atom ())
              ops.(next rng (Array.length ops))
              (atom ())
          in
          scope := t :: !scope;
          s)
    in
    (stmts, Printf.sprintf "(%s %s %s)" (atom ())
              ops.(next rng (Array.length ops)) (atom ()))

  (* Every body stores into [gs], so no routine is deletable and the
     program's size tracks [routines] through HLO. *)
  let leaf rng ~name ~static =
    let arity = 1 + next rng 2 in
    let params = tabulate arity (fun i -> Printf.sprintf "p%d" i) in
    let stmts, ret = arith rng ~params ~n:(3 + next rng 4) in
    { fn_name = name; fn_static = static; fn_params = params;
      fn_body = stmts @ [ Printf.sprintf "gs = (gs + %s);" ret ];
      fn_ret = ret }

  let chain_fn rng ~name ~callee =
    let stmts, ret = arith rng ~params:[ "p0" ] ~n:(2 + next rng 3) in
    let tail =
      match callee with
      | None -> Printf.sprintf "gs = (gs + %s);" ret
      | Some c -> Printf.sprintf "gs = (gs + %s((p0 + %d)));" c (next rng 9)
    in
    { fn_name = name; fn_static = false; fn_params = [ "p0" ];
      fn_body = stmts @ [ tail ]; fn_ret = ret }

  let scc_member rng ~name ~succ =
    let stmts, ret = arith rng ~params:[ "n" ] ~n:(1 + next rng 3) in
    { fn_name = name; fn_static = true; fn_params = [ "n" ];
      fn_body =
        stmts
        @ [ Printf.sprintf "if (n > 0) { gs = (gs + %s((n - 1))); }" succ ];
      fn_ret = ret }

  let hub ~name ~calls =
    let body =
      List.map
        (fun (c, arity) ->
          let args = List.init arity (fun i -> Printf.sprintf "(p0 + %d)" i) in
          Printf.sprintf "gs = (gs + %s(%s));" c (String.concat ", " args))
        calls
    in
    { fn_name = name; fn_static = false; fn_params = [ "p0" ];
      fn_body = body; fn_ret = "(gs + p0)" }

  let wide_module rng m =
    let leaves =
      tabulate (funcs_per_module - 1) (fun j ->
          leaf rng
            ~name:(Printf.sprintf "m%d_f%d" m j)
            ~static:(j mod 3 = 0))
    in
    leaves
    @ [ hub
          ~name:(Printf.sprintf "m%d_hub" m)
          ~calls:
            (List.map (fun f -> (f.fn_name, List.length f.fn_params)) leaves) ]

  (* f0 of module m continues module m-1's chain, so the whole program
     is one call chain rooted at the last module's last function. *)
  let deep_module rng m =
    tabulate funcs_per_module (fun j ->
        let callee =
          if j > 0 then Some (Printf.sprintf "m%d_f%d" m (j - 1))
          else if m > 0 then
            Some (Printf.sprintf "m%d_f%d" (m - 1) (funcs_per_module - 1))
          else None
        in
        chain_fn rng ~name:(Printf.sprintf "m%d_f%d" m j) ~callee)

  (* Eight mutually recursive triples per module plus a hub that enters
     each one; recursion is bounded by the decreasing counter. *)
  let scc_module rng m =
    let triples = (funcs_per_module - 1) / 3 in
    let members =
      List.concat
        (tabulate triples (fun g ->
             tabulate 3 (fun k ->
                 let j = (3 * g) + k in
                 let succ = (3 * g) + ((k + 1) mod 3) in
                 scc_member rng
                   ~name:(Printf.sprintf "m%d_f%d" m j)
                   ~succ:(Printf.sprintf "m%d_f%d" m succ))))
    in
    members
    @ [ hub
          ~name:(Printf.sprintf "m%d_hub" m)
          ~calls:
            (tabulate triples (fun g ->
                 (Printf.sprintf "m%d_f%d" m (3 * g), 1))) ]

  (** At least [routines] routines (rounded up to whole modules, plus
      [main]), deterministic in [seed]. *)
  let sources shape ~routines ~seed : Minic.Compile.source list =
    let rng =
      make_rng
        ((seed * 8191)
        + (match shape with Wide -> 1 | Deep -> 2 | Scc -> 3))
    in
    let nmods =
      max 1 ((routines + funcs_per_module - 1) / funcs_per_module)
    in
    let modules =
      tabulate nmods (fun m ->
          let fns =
            match shape with
            | Wide -> wide_module rng m
            | Deep -> deep_module rng m
            | Scc -> scc_module rng m
          in
          let header =
            if m = 0 then "public global gs;\npublic global gt = 3;\n" else ""
          in
          Minic.Compile.source
            ~module_name:(Printf.sprintf "m%d" m)
            (header ^ String.concat "\n" (List.map render_fn fns)))
    in
    let main_calls =
      match shape with
      | Wide | Scc ->
        tabulate nmods (fun m -> Printf.sprintf "gs = (gs + m%d_hub(3));" m)
      | Deep ->
        [ Printf.sprintf "gs = (gs + m%d_f%d(5));" (nmods - 1)
            (funcs_per_module - 1) ]
    in
    let main_src =
      Minic.Compile.source ~module_name:"app"
        (Printf.sprintf
           "func main() { %s print_int(gs); print_int(gt); return 0; }"
           (String.concat " " main_calls))
    in
    modules @ [ main_src ]

  (** Routines in the program [sources shape ~routines] actually
      produces (whole modules plus [main]). *)
  let routine_count ~routines =
    (max 1 ((routines + funcs_per_module - 1) / funcs_per_module)
     * funcs_per_module)
    + 1
end
