(** Pretty-printing of the IR, for diagnostics, tests and the
    [--dump-ir] option of the command-line compiler. *)

open Types

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let unop_name = function Neg -> "neg" | Not -> "not"

let pp_reg ppf r = Fmt.pf ppf "r%d" r
let pp_label ppf l = Fmt.pf ppf "L%d" l

let pp_callee ppf = function
  | Direct n -> Fmt.string ppf n
  | Indirect r -> Fmt.pf ppf "*%a" pp_reg r

let pp_call ppf { c_dst; c_callee; c_args; c_site } =
  (match c_dst with
  | Some d -> Fmt.pf ppf "%a = " pp_reg d
  | None -> ());
  Fmt.pf ppf "call %a(%a) @@site%d" pp_callee c_callee
    Fmt.(list ~sep:(any ", ") pp_reg)
    c_args c_site

let pp_instr ppf = function
  | Const (d, k) -> Fmt.pf ppf "%a = const %Ld" pp_reg d k
  | Faddr (d, n) -> Fmt.pf ppf "%a = faddr %s" pp_reg d n
  | Gaddr (d, n) -> Fmt.pf ppf "%a = gaddr %s" pp_reg d n
  | Unop (d, op, a) -> Fmt.pf ppf "%a = %s %a" pp_reg d (unop_name op) pp_reg a
  | Binop (d, op, a, b) ->
    Fmt.pf ppf "%a = %s %a, %a" pp_reg d (binop_name op) pp_reg a pp_reg b
  | Move (d, a) -> Fmt.pf ppf "%a = %a" pp_reg d pp_reg a
  | Load (d, a) -> Fmt.pf ppf "%a = load [%a]" pp_reg d pp_reg a
  | Store (a, v) -> Fmt.pf ppf "store [%a] = %a" pp_reg a pp_reg v
  | Call c -> pp_call ppf c

let pp_term ppf = function
  | Jump l -> Fmt.pf ppf "jump %a" pp_label l
  | Branch (r, l1, l2) ->
    Fmt.pf ppf "branch %a ? %a : %a" pp_reg r pp_label l1 pp_label l2
  | Return (Some r) -> Fmt.pf ppf "return %a" pp_reg r
  | Return None -> Fmt.pf ppf "return"

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%a:@,%a%a@]" pp_label b.b_id
    Fmt.(list ~sep:nop (pp_instr ++ cut))
    b.b_instrs pp_term b.b_term

let linkage_name = function Exported -> "export" | Module_local -> "static"

let pp_attrs ppf a =
  let flags =
    List.filter_map
      (fun (b, s) -> if b then Some s else None)
      [ (a.a_varargs, "varargs"); (a.a_alloca, "alloca");
        (a.a_fp_model = Relaxed, "fp-relaxed");
        (a.a_no_inline, "noinline"); (a.a_no_clone, "noclone") ]
  in
  if flags <> [] then Fmt.pf ppf " [%s]" (String.concat "," flags)

let pp_routine ppf r =
  Fmt.pf ppf "@[<v 2>%s routine %s.%s(%a)%a%s:@,%a@]" (linkage_name r.r_linkage)
    r.r_module r.r_name
    Fmt.(list ~sep:(any ", ") pp_reg)
    r.r_params pp_attrs r.r_attrs
    (match r.r_origin with
    | From_source -> ""
    | Clone_of orig -> " <clone of " ^ orig ^ ">")
    Fmt.(list ~sep:cut pp_block)
    r.r_blocks

let pp_global ppf g =
  Fmt.pf ppf "global %s.%s[%d]" g.g_module g.g_name g.g_size;
  if g.g_init <> [] then
    Fmt.pf ppf " = {%a}" Fmt.(list ~sep:(any ", ") int64) g.g_init

let pp_program ppf p =
  Fmt.pf ppf "@[<v>program (main = %s)@,%a@,%a@]" p.p_main
    Fmt.(list ~sep:cut pp_global)
    p.p_globals
    Fmt.(list ~sep:(cut ++ cut) pp_routine)
    p.p_routines

let program_to_string p = Fmt.str "%a" pp_program p
