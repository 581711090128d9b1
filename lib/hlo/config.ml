(** HLO configuration.

    The knobs correspond to the paper's user controls: the compile-time
    growth budget (a percentage over the no-inlining compile cost,
    default 100 as in §3.4), the pass limit for the alternating
    clone/inline loop, scope switches (cross-module, profile use) and
    the Figure 8 instrumentation that artificially stops the optimizer
    after a fixed number of operations. *)

type t = {
  budget_percent : float;
      (** allowed compile-cost increase; 100.0 = the paper's default *)
  pass_limit : int;  (** maximum clone+inline pass pairs (default 4) *)
  staging : float list;
      (** cumulative fraction of the budget available at each pass;
          must be nondecreasing and end at 1.0 *)
  enable_inlining : bool;
  enable_cloning : bool;
  cross_module : bool;
      (** allow transformations across module boundaries (the paper's
          "c" scope) *)
  use_profile : bool;
      (** feed profile data to the heuristics (the paper's "p" scope) *)
  max_operations : int option;
      (** stop after this many inline/clone-replacement operations
          (used to draw Figure 8); [None] = unlimited *)
  optimize_between_passes : bool;
      (** run the scalar optimizer on transformed routines after each
          pass ("optimize clones and recalibrate") *)
  cold_site_penalty : float;
      (** benefit multiplier for call sites colder than their caller's
          entry block (default 0.25) *)
  indirect_bonus : float;
      (** benefit multiplier when cloning feeds a constant routine
          handle into an indirect call's function position *)
  enable_outlining : bool;
      (** extract cold single-entry regions into routines of their own
          before inlining starts — the paper's §5 "aggressive
          outlining" future work; requires profile data *)
  outline_cold_fraction : float;
      (** a block colder than this fraction of its routine's entry
          count is outlinable *)
  outline_min_instructions : int;  (** smallest region worth a call *)
  outline_max_inputs : int;  (** most live-in registers per region *)
  stage_order : Policy.stage list;
      (** the schedule interpreted once per pass; the default is the
          fixed clone/inline/prune/clean/prune order of the paper *)
  inline_mode : Policy.inline_mode;
      (** what to do with a callee whose whole body busts the budget:
          reject it ([Whole], the paper), outline its cold regions
          eagerly before ranking ([Region]) or lazily at the failing
          budget check ([Demand]) and inline the hot residue *)
  region_cold_fraction : float;
      (** region/demand coldness cut: a block below this fraction of
          its routine's hottest block count is outlinable residue *)
  validate : bool;  (** check IR invariants after each pass (testing) *)
}

let default =
  { budget_percent = 100.0; pass_limit = 4;
    staging = [ 0.25; 0.5; 0.75; 1.0 ]; enable_inlining = true;
    enable_cloning = true; cross_module = true; use_profile = true;
    max_operations = None; optimize_between_passes = true;
    cold_site_penalty = 0.25; indirect_bonus = 4.0;
    enable_outlining = false; outline_cold_fraction = 0.05;
    outline_min_instructions = 6; outline_max_inputs = 6;
    stage_order = Policy.default.Policy.stages;
    inline_mode = Policy.Whole; region_cold_fraction = 0.5;
    validate = false }

(** Overlay a policy's knobs on [base] (default: {!default}).  Scope
    switches, validation and Figure 8 instrumentation are not policy
    material and keep [base]'s values. *)
let of_policy ?(base = default) (p : Policy.t) =
  { base with
    budget_percent = p.Policy.budget_percent; staging = p.Policy.staging;
    pass_limit = p.Policy.pass_limit;
    cold_site_penalty = p.Policy.cold_site_penalty;
    indirect_bonus = p.Policy.indirect_bonus;
    enable_outlining = p.Policy.outline;
    outline_cold_fraction = p.Policy.outline_cold_fraction;
    outline_min_instructions = p.Policy.outline_min_instructions;
    outline_max_inputs = p.Policy.outline_max_inputs;
    stage_order = p.Policy.stages; inline_mode = p.Policy.inline_mode;
    region_cold_fraction = p.Policy.region_cold_fraction }

(** The policy this configuration embodies — the exact inverse of
    {!of_policy} on the policy-owned fields. *)
let to_policy t =
  { Policy.budget_percent = t.budget_percent; staging = t.staging;
    pass_limit = t.pass_limit; cold_site_penalty = t.cold_site_penalty;
    indirect_bonus = t.indirect_bonus; outline = t.enable_outlining;
    outline_cold_fraction = t.outline_cold_fraction;
    outline_min_instructions = t.outline_min_instructions;
    outline_max_inputs = t.outline_max_inputs;
    inline_mode = t.inline_mode;
    region_cold_fraction = t.region_cold_fraction; stages = t.stage_order }

(** The four measurement scopes of Table 1: base (per-module, no
    profile), [c] = cross-module, [p] = profile, [cp] = both. *)
type scope = Base | C | P | CP

let scope_name = function Base -> "base" | C -> "c" | P -> "p" | CP -> "cp"

(** The inverse of {!scope_name}: the one parser every surface (flags,
    the daemon protocol) uses. *)
let scope_of_name = function
  | "base" -> Ok Base
  | "c" -> Ok C
  | "p" -> Ok P
  | "cp" -> Ok CP
  | s -> Error ("unknown scope " ^ s)

let with_scope t = function
  | Base -> { t with cross_module = false; use_profile = false }
  | C -> { t with cross_module = true; use_profile = false }
  | P -> { t with cross_module = false; use_profile = true }
  | CP -> { t with cross_module = true; use_profile = true }

(** Figure 6 configurations: inline only / clone only / both /
    neither. *)
let with_transforms t ~inline ~clone =
  { t with enable_inlining = inline; enable_cloning = clone }

(** The scope the [cross_module]/[use_profile] pair encodes. *)
let scope_of t =
  match (t.cross_module, t.use_profile) with
  | false, false -> Base
  | true, false -> C
  | false, true -> P
  | true, true -> CP

let staging_to_string staging =
  String.concat "," (List.map (Printf.sprintf "%g") staging)

(** Parse a comma-separated staging list ("0.25,0.5,1").  The inverse
    of {!staging_to_string}.  Rejects schedules {!Policy.check_staging}
    rejects, so a bad [--staging] fails at the flag, not inside HLO. *)
let staging_of_string s =
  match
    List.map
      (fun part -> float_of_string (String.trim part))
      (String.split_on_char ',' s)
  with
  | fractions when fractions <> [] -> (
    match Policy.check_staging fractions with
    | Ok () -> Ok fractions
    | Error msg -> Error (Printf.sprintf "bad staging list %S: %s" s msg))
  | _ | (exception Failure _) -> Error ("bad staging list: " ^ s)

(** Command-line flags (in [hloc]/[hlo_fuzz] syntax) reproducing [t]'s
    deviation from {!default} — the fuzzer writes these into each
    bucket's replay command so a repro pins the exact configuration. *)
let to_flags t =
  let d = default in
  List.concat
    [ (if scope_of t <> scope_of d then [ "--scope"; scope_name (scope_of t) ]
       else []);
      (if t.budget_percent <> d.budget_percent then
         [ "--budget"; Printf.sprintf "%g" t.budget_percent ]
       else []);
      (if t.pass_limit <> d.pass_limit then
         [ "--passes"; string_of_int t.pass_limit ]
       else []);
      (if t.staging <> d.staging then
         [ "--staging"; staging_to_string t.staging ]
       else []);
      (if not t.enable_inlining then [ "--no-inline" ] else []);
      (if not t.enable_cloning then [ "--no-clone" ] else []);
      (if t.enable_outlining then [ "--outline" ] else []);
      (if t.inline_mode <> d.inline_mode then
         [ "--inline-mode"; Policy.inline_mode_name t.inline_mode ]
       else []);
      (if t.region_cold_fraction <> d.region_cold_fraction then
         [ "--region-cold-fraction";
           Printf.sprintf "%g" t.region_cold_fraction ]
       else []);
      (match t.max_operations with
      | Some n -> [ "--max-operations"; string_of_int n ]
      | None -> []);
      (if not t.optimize_between_passes then [ "--no-reopt" ] else []);
      (if t.validate then [ "--validate" ] else []) ]
