(* ------------------------------------------------------------------ *)
(* Classic ddmin (Zeller & Hildebrandt), over an abstract list.          *)

let partition items n =
  let arr = Array.of_list items in
  let l = Array.length arr in
  let chunks = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let stop = (i + 1) * l / n in
    if stop > !start then
      chunks := Array.to_list (Array.sub arr !start (stop - !start)) :: !chunks;
    start := stop
  done;
  List.rev !chunks

let ddmin ~test items =
  if items = [] || not (test items) then items
  else
    let rec go items n =
      let len = List.length items in
      if len <= 1 then items
      else
        let chunks = partition items n in
        let complement i =
          List.concat
            (List.filteri (fun j _ -> j <> i) chunks)
        in
        let rec try_candidates mk next i =
          if i >= List.length chunks then None
          else
            let cand = mk i in
            if List.length cand < len && test cand then Some (cand, next)
            else try_candidates mk next (i + 1)
        in
        match try_candidates (fun i -> List.nth chunks i) 2 0 with
        | Some (cand, n') -> go cand n'
        | None -> (
          (* At n = 2 each complement is the other chunk — already tried. *)
          match
            if n > 2 then try_candidates complement (max (n - 1) 2) 0
            else None
          with
          | Some (cand, n') -> go cand n'
          | None -> if n < len then go items (min len (2 * n)) else items)
    in
    go items 2

(* ------------------------------------------------------------------ *)
(* Statement granularity.                                               *)

let strip_comments text =
  String.concat "\n"
    (List.map
       (fun line ->
         let rec find i =
           if i + 1 >= String.length line then line
           else if line.[i] = '/' && line.[i + 1] = '/' then String.sub line 0 i
           else find (i + 1)
         in
         find 0)
       (String.split_on_char '\n' text))

let split_statements text =
  let out = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then out := s :: !out
  in
  let depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
        incr depth;
        Buffer.add_char buf c
      | ')' ->
        decr depth;
        Buffer.add_char buf c
      | ';' when !depth = 0 ->
        Buffer.add_char buf c;
        flush ()
      | '{' | '}' ->
        Buffer.add_char buf c;
        flush ()
      | '\n' -> Buffer.add_char buf ' '
      | c -> Buffer.add_char buf c)
    (strip_comments text);
  flush ();
  List.rev !out

let source_lines (sources : Minic.Compile.source list) =
  List.fold_left
    (fun acc (s : Minic.Compile.source) ->
      acc + List.length (split_statements s.Minic.Compile.src_text))
    0 sources

(* ------------------------------------------------------------------ *)
(* The reducer.                                                         *)

type t = {
  r_case : Fuzz.case;
  r_failure : Fuzz.failure;
  r_lines : int;
  r_tests : int;
}

let replace i x l = List.mapi (fun j y -> if j = i then x else y) l

let sources_of mods =
  List.map
    (fun (name, stmts) ->
      Minic.Compile.source ~module_name:name (String.concat "\n" stmts))
    mods

let reduce ?(interp_config = Interp.default_config) (orig : Fuzz.failure) : t =
  let tests = ref 0 in
  (* [best] always describes the most recently *accepted* candidate:
     every adoption below goes through a successful [still_fails]. *)
  let best = ref orig in
  let case_of sources check =
    { Fuzz.c_label = orig.Fuzz.f_case.Fuzz.c_label ^ ":reduced";
      c_sources = sources; c_check = check }
  in
  let still_fails sources check =
    incr tests;
    match Fuzz.run_case ~interp_config (case_of sources check) with
    | Fuzz.Failed f when String.equal f.Fuzz.f_bucket orig.Fuzz.f_bucket ->
      best := f;
      true
    | _ -> false
  in
  let check = ref orig.Fuzz.f_case.Fuzz.c_check in
  let mods =
    ref
      (List.map
         (fun (s : Minic.Compile.source) ->
           (s.Minic.Compile.src_module,
            split_statements s.Minic.Compile.src_text))
         orig.Fuzz.f_case.Fuzz.c_sources)
  in
  (* Comment stripping / re-joining could in principle perturb the
     repro; if it does, fall back to reducing only the check. *)
  let splittable = still_fails (sources_of !mods) !check in
  let reduce_statements () =
    (* Whole modules first (cheap, large bites)... *)
    mods := ddmin ~test:(fun ms -> still_fails (sources_of ms) !check) !mods;
    (* ...then statements inside each module, to a bounded fixpoint:
       removing a caller can unlock removing its callee next round. *)
    let changed = ref true in
    let round = ref 0 in
    while !changed && !round < 3 do
      changed := false;
      incr round;
      for i = 0 to List.length !mods - 1 do
        let name, stmts = List.nth !mods i in
        let stmts' =
          ddmin
            ~test:(fun cand ->
              still_fails (sources_of (replace i (name, cand) !mods)) !check)
            stmts
        in
        if List.length stmts' < List.length stmts then begin
          changed := true;
          mods := replace i (name, stmts') !mods
        end
      done;
      let nonempty = List.filter (fun (_, stmts) -> stmts <> []) !mods in
      if
        List.length nonempty < List.length !mods
        && still_fails (sources_of nonempty) !check
      then mods := nonempty
    done
  in
  let current_sources () =
    if splittable then sources_of !mods else orig.Fuzz.f_case.Fuzz.c_sources
  in
  if splittable then reduce_statements ();
  (* Check simplification: push every knob toward the default / the
     least machinery that still reproduces the bucket, greedily. *)
  let try_check ck' =
    if ck' <> !check && still_fails (current_sources ()) ck' then check := ck'
  in
  let cfg () = !check.Sem.ck_config in
  try_check { !check with Sem.ck_mutation = Sem.Keep };
  try_check
    { !check with
      Sem.ck_config = { (cfg ()) with Hlo.Config.enable_outlining = false } };
  try_check
    { !check with
      Sem.ck_config = { (cfg ()) with Hlo.Config.enable_cloning = false } };
  try_check
    { !check with
      Sem.ck_config = { (cfg ()) with Hlo.Config.enable_inlining = false } };
  try_check
    { !check with
      Sem.ck_config =
        { (cfg ()) with Hlo.Config.pass_limit = 1; staging = [ 1.0 ] } };
  try_check
    { !check with
      Sem.ck_config = { (cfg ()) with Hlo.Config.max_operations = None } };
  try_check
    { !check with
      Sem.ck_config = { (cfg ()) with Hlo.Config.budget_percent = 100.0 } };
  try_check
    { !check with
      Sem.ck_config =
        { (cfg ()) with Hlo.Config.optimize_between_passes = true } };
  (* A simpler check often unlocks further statement removal. *)
  if splittable then reduce_statements ();
  let final_sources = current_sources () in
  { r_case = case_of final_sources !check;
    r_failure = !best;
    r_lines = source_lines final_sources;
    r_tests = !tests }
