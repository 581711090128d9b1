(** Structural well-formedness checks on the IR.

    Run after the front end and after every HLO transformation in tests
    (and behind a flag in the driver): catching a malformed routine at
    the point of creation is vastly cheaper than debugging a bad
    simulation result. *)

open Types

type error = { where : string; what : string }

let err where fmt = Printf.ksprintf (fun what -> { where; what }) fmt

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.where e.what

(** Check a single routine; returns all problems found. *)
let check_routine (r : routine) : error list =
  let problems = ref [] in
  let add e = problems := e :: !problems in
  let where = "routine " ^ r.r_name in
  if r.r_blocks = [] then add (err where "no blocks");
  (* Unique block ids, all in range. *)
  let ids = List.map (fun b -> b.b_id) r.r_blocks in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then add (err where "duplicate block id %d" l);
      Hashtbl.replace seen l ();
      if l < 0 || l >= r.r_next_label then
        add (err where "block id %d out of range [0,%d)" l r.r_next_label))
    ids;
  (* Parameters distinct and in range. *)
  let nparams = List.length r.r_params in
  if List.sort_uniq compare r.r_params <> List.sort compare r.r_params then
    add (err where "duplicate parameter registers");
  List.iter
    (fun p ->
      if p < 0 || p >= r.r_next_reg then
        add (err where "parameter register r%d out of range" p))
    r.r_params;
  ignore nparams;
  (* Registers in range; branch targets exist. *)
  let check_reg ctx x =
    if x < 0 || x >= r.r_next_reg then
      add (err where "%s: register r%d out of range [0,%d)" ctx x r.r_next_reg)
  in
  List.iter
    (fun b ->
      let ctx = Printf.sprintf "block %d" b.b_id in
      List.iter
        (fun i ->
          List.iter (check_reg ctx) (instr_uses i);
          Option.iter (check_reg ctx) (instr_def i))
        b.b_instrs;
      List.iter (check_reg ctx) (term_uses b.b_term);
      List.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then
            add (err where "%s: branch to missing block %d" ctx l))
        (term_targets b.b_term))
    r.r_blocks;
  List.rev !problems

(** Check a whole program: routine-level checks plus name uniqueness,
    resolvable direct callees (defined routine or builtin), resolvable
    global references, existence of [main], and site uniqueness. *)
let check_program (p : program) : error list =
  let problems = ref [] in
  let add e = problems := e :: !problems in
  List.iter (fun r -> List.iter add (check_routine r)) p.p_routines;
  let where = "program" in
  (* Unique routine and global names. *)
  let names = Hashtbl.create 64 in
  List.iter
    (fun (r : routine) ->
      if Hashtbl.mem names r.r_name then
        add (err where "duplicate routine name %s" r.r_name);
      Hashtbl.replace names r.r_name ())
    p.p_routines;
  let gnames = Hashtbl.create 64 in
  List.iter
    (fun (g : global) ->
      if Hashtbl.mem gnames g.g_name then
        add (err where "duplicate global name %s" g.g_name);
      Hashtbl.replace gnames g.g_name ();
      if g.g_size <= 0 then add (err where "global %s has size %d" g.g_name g.g_size);
      if List.length g.g_init > g.g_size then
        add (err where "global %s: initializer longer than size" g.g_name))
    p.p_globals;
  if not (Hashtbl.mem names p.p_main) then
    add (err where "main routine %s not defined" p.p_main);
  (* References resolve; sites unique and in range. *)
  let sites = Hashtbl.create 256 in
  List.iter
    (fun (r : routine) ->
      let where = "routine " ^ r.r_name in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Call { c_callee = Direct n; c_site; _ } ->
                if (not (Hashtbl.mem names n)) && not (is_builtin n) then
                  add (err where "call to undefined routine %s" n);
                if Hashtbl.mem sites c_site then
                  add (err where "duplicate call site id %d" c_site);
                Hashtbl.replace sites c_site ();
                if c_site < 0 || c_site >= p.p_next_site then
                  add (err where "site id %d out of range" c_site)
              | Call { c_site; _ } ->
                if Hashtbl.mem sites c_site then
                  add (err where "duplicate call site id %d" c_site);
                Hashtbl.replace sites c_site ();
                if c_site < 0 || c_site >= p.p_next_site then
                  add (err where "site id %d out of range" c_site)
              | Faddr (_, n) ->
                if not (Hashtbl.mem names n) then
                  add (err where "faddr of undefined routine %s" n)
              | Gaddr (_, n) ->
                if not (Hashtbl.mem gnames n) then
                  add (err where "gaddr of undefined global %s" n)
              | _ -> ())
            b.b_instrs)
        r.r_blocks)
    p.p_routines;
  List.rev !problems

let errors_to_string errors =
  String.concat "\n" (List.map (fun e -> Fmt.str "%a" pp_error e) errors)
