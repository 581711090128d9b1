module U = Ucode.Types

type observation = {
  ob_exit : int64;
  ob_output : string;
  ob_globals : (string * int64 array) list;
}

type outcome =
  | Finished of observation
  | Trapped of { kind : string; partial : observation }
  | Diverged of string

(* Trap normalization.  Handle payloads are per-run values and routine
   names are renamed by cloning, so neither may influence comparison;
   an external routine's own name is stable and kept.  Fuel and call
   depth are resources whose exhaustion point legitimately moves under
   transformation. *)
let classify_trap = function
  | Interp.Division_by_zero -> `Semantic "division_by_zero"
  | Interp.Out_of_bounds _ -> `Semantic "out_of_bounds"
  | Interp.Bad_function_handle _ -> `Semantic "bad_function_handle"
  | Interp.Call_to_external n -> `Semantic ("call_to_external:" ^ n)
  | Interp.Aborted -> `Semantic "abort"
  | Interp.Out_of_memory -> `Semantic "out_of_memory"
  | Interp.Indirect_arity_mismatch _ -> `Semantic "indirect_arity_mismatch"
  | Interp.Out_of_fuel -> `Resource "fuel"
  | Interp.Call_depth_exceeded -> `Resource "call_depth"

let observation_of (r : Interp.result) =
  { ob_exit = r.Interp.exit_code; ob_output = r.Interp.output;
    ob_globals = r.Interp.globals }

let observe ?(config = Interp.default_config) (p : U.program) : outcome =
  match Interp.run_outcome ~config p with
  | Interp.Finished r -> Finished (observation_of r)
  | Interp.Trapped { trap; partial; _ } -> (
    match classify_trap trap with
    | `Semantic kind -> Trapped { kind; partial = observation_of partial }
    | `Resource what -> Diverged what)

let pp_globals ppf globals =
  List.iter
    (fun (name, cells) ->
      Format.fprintf ppf "%s=[%s] " name
        (String.concat ";"
           (List.map Int64.to_string (Array.to_list cells))))
    globals

let outcome_to_string = function
  | Finished ob ->
    Format.asprintf "exit=%Ld output=%S %a" ob.ob_exit ob.ob_output pp_globals
      ob.ob_globals
  | Trapped { kind; partial } ->
    Format.asprintf "trap=%s output=%S %a" kind partial.ob_output pp_globals
      partial.ob_globals
  | Diverged what -> Printf.sprintf "diverged(%s)" what

(* ------------------------------------------------------------------ *)
(* Comparison.                                                          *)

let first_global_diff a b =
  (* Transformations never add or remove globals; a layout difference
     is itself a finding. *)
  if List.map fst a <> List.map fst b then Some ("<layout>", "", "")
  else
    List.find_map
      (fun ((name, ca), (_, cb)) ->
        if ca <> cb then
          Some
            ( name,
              String.concat ";" (List.map Int64.to_string (Array.to_list ca)),
              String.concat ";" (List.map Int64.to_string (Array.to_list cb)) )
        else None)
      (List.combine a b)

let first_output_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | [], [] -> Printf.sprintf "outputs differ (line %d)" i
    | x :: _, [] -> Printf.sprintf "line %d: %S vs <end of output>" i x
    | [], y :: _ -> Printf.sprintf "line %d: <end of output> vs %S" i y
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) (xs, ys)
      else Printf.sprintf "line %d: %S vs %S" i x y
  in
  go 1 (la, lb)

let compare_observations ~(what : string) (a : observation) (b : observation) :
    (string * string) option =
  if not (String.equal a.ob_output b.ob_output) then
    Some (what ^ "output", first_output_diff a.ob_output b.ob_output)
  else if not (Int64.equal a.ob_exit b.ob_exit) then
    Some
      ( what ^ "exit",
        Printf.sprintf "exit %Ld vs %Ld" a.ob_exit b.ob_exit )
  else
    match first_global_diff a.ob_globals b.ob_globals with
    | Some (name, va, vb) ->
      Some
        ( Printf.sprintf "%sglobals:%s" what name,
          Printf.sprintf "global %s: [%s] vs [%s]" name va vb )
    | None -> None

(* Traps the optimizer is licensed to erase: DCE deletes dead [Div]/
   [Rem] and dead [Load]s (and IPA lets whole calls containing them
   vanish) — see lib/opt/ipa.ml, "Division traps are the one effect we
   knowingly give up".  When the baseline run dies of one of these, the
   transformed program may legally run further (the trapping op was
   dead), trap somewhere else, or not trap at all; the only sound check
   left is that it reproduces the baseline's output before trapping.
   Abort, external, allocation and indirect-call traps sit in [Call]s,
   which are never erased or reordered, so they stay strict. *)
let erasable_trap kind =
  String.equal kind "division_by_zero" || String.equal kind "out_of_bounds"

let is_prefix a b =
  String.length a <= String.length b
  && String.equal a (String.sub b 0 (String.length a))

let compare_outcomes ~pre ~post : (string * string) option =
  match (pre, post) with
  | Trapped { kind; partial }, _ when erasable_trap kind -> (
    match post with
    | Diverged _ ->
      (* The erased trap may have been the only exit of a loop. *)
      None
    | Finished ob | Trapped { partial = ob; _ } ->
      if is_prefix partial.ob_output ob.ob_output then None
      else
        Some
          ( "erasable_trap_output",
            Printf.sprintf
              "original trapped %s after %S, but that is not a prefix of \
               the transformed output %S"
              kind partial.ob_output ob.ob_output ))
  | Finished a, Finished b -> compare_observations ~what:"" a b
  | Trapped a, Trapped b ->
    if not (String.equal a.kind b.kind) then
      Some ("trap_kind", Printf.sprintf "trap %s vs %s" a.kind b.kind)
    else compare_observations ~what:"trap_" a.partial b.partial
  | Diverged _, _ ->
    (* The baseline already exhausted a resource; any post behavior is
       compatible (e.g. inlining lowered the call depth). *)
    None
  | _, Diverged what ->
    Some
      ( "introduced_divergence",
        Printf.sprintf "transformed program exhausted %s; original %s" what
          (match pre with
          | Finished ob -> Printf.sprintf "finished (exit=%Ld)" ob.ob_exit
          | Trapped { kind; _ } -> "trapped (" ^ kind ^ ")"
          | Diverged _ -> assert false) )
  | Finished _, Trapped { kind; _ } ->
    Some ("trap_kind", "transformed program trapped (" ^ kind ^ "); original finished")
  | Trapped { kind; _ }, Finished _ ->
    Some ("trap_kind", "transformed program finished; original trapped (" ^ kind ^ ")")

let agree ~pre ~post = compare_outcomes ~pre ~post = None

(* ------------------------------------------------------------------ *)
(* Metamorphic profile perturbations.                                   *)

type profile_mutation = Keep | Scale of float | Zero | Stale of int

let mutation_to_string = function
  | Keep -> "keep"
  | Scale f -> Printf.sprintf "scale:%g" f
  | Zero -> "zero"
  | Stale seed -> Printf.sprintf "stale:%d" seed

let mutation_of_string s =
  match String.split_on_char ':' s with
  | [ "keep" ] -> Ok Keep
  | [ "zero" ] -> Ok Zero
  | [ "scale"; f ] -> (
    match float_of_string_opt f with
    | Some f -> Ok (Scale f)
    | None -> Error ("bad scale factor: " ^ s))
  | [ "stale"; n ] -> (
    match int_of_string_opt n with
    | Some n -> Ok (Stale n)
    | None -> Error ("bad stale seed: " ^ s))
  | _ -> Error ("unknown profile mutation: " ^ s)

let map_counts f (p : Ucode.Profile.t) : Ucode.Profile.t =
  { Ucode.Profile.blocks =
      U.String_map.map (U.Int_map.map f) p.Ucode.Profile.blocks;
    sites = U.Int_map.map f p.Ucode.Profile.sites;
    targets =
      U.Int_map.map
        (List.map (fun (n, c) -> (n, f c)))
        p.Ucode.Profile.targets }

(* A cheap, deterministic mixing hash for the stale perturbation. *)
let mix seed key = Hashtbl.hash (seed, key)

(* Factor in [0.25, 2.25): big enough swings to reorder heuristics. *)
let stale_factor seed key =
  0.25 +. (float_of_int (mix seed key mod 1000) /. 500.0)

let mutate_profile m (p : Ucode.Profile.t) : Ucode.Profile.t =
  match m with
  | Keep -> p
  | Zero -> Ucode.Profile.empty
  | Scale f -> map_counts (fun c -> c *. f) p
  | Stale seed ->
    { Ucode.Profile.blocks =
        U.String_map.mapi
          (fun routine per_block ->
            let f = stale_factor seed routine in
            U.Int_map.map (fun c -> c *. f) per_block)
          p.Ucode.Profile.blocks;
      sites =
        U.Int_map.mapi
          (fun site c -> c *. stale_factor seed site)
          p.Ucode.Profile.sites;
      (* Half the indirect histograms vanish, as if those sites were
         never exercised in the stale run. *)
      targets =
        U.Int_map.filter
          (fun site _ -> mix seed (site + 1) mod 2 = 0)
          p.Ucode.Profile.targets }

(* ------------------------------------------------------------------ *)
(* The transformation check.                                            *)

type check = {
  ck_config : Hlo.Config.t;
  ck_mutation : profile_mutation;
}

let default_check =
  { ck_config = { Hlo.Config.default with Hlo.Config.validate = true };
    ck_mutation = Keep }

type transform_result = {
  tr_driver : Hlo.Driver.result;
  tr_pre : outcome;
  tr_post : outcome;
  tr_verdict : (string * string) option;
}

let check_transform ?(interp_config = Interp.default_config) (ck : check)
    (program : U.program) : transform_result =
  let tr_pre = observe ~config:interp_config program in
  let profile =
    if ck.ck_config.Hlo.Config.use_profile then
      match
        Interp.run ~config:{ interp_config with Interp.profile = true } program
      with
      | r -> r.Interp.profile
      | exception Interp.Trap _ -> Ucode.Profile.empty
    else Ucode.Profile.empty
  in
  let profile = mutate_profile ck.ck_mutation profile in
  let tr_driver = Hlo.Driver.run ~config:ck.ck_config ~profile program in
  let tr_post = observe ~config:interp_config tr_driver.Hlo.Driver.program in
  { tr_driver; tr_pre; tr_post;
    tr_verdict = compare_outcomes ~pre:tr_pre ~post:tr_post }
