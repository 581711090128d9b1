(** The differential fuzz engine.

    A {!case} is one (program, HLO config, profile mutation)
    triple.  {!run_case} compiles it and asks the semantic oracle
    ({!Sem.check_transform}) whether HLO preserved observable behavior;
    mismatches and compiler crashes become {!failure}s with a *stable
    bucket hash* so a campaign can group many manifestations of one bug.

    The engine is deliberately ignorant of where cases come from: the
    [hlo_fuzz] driver feeds it corpus programs and random programs from
    the shared generator, the test suite feeds it seeded-bug (chaos)
    runs. *)

type case = {
  c_label : string;  (** provenance, e.g. ["gen:seed=7/i=42"] or ["corpus:indirect"] *)
  c_sources : Minic.Compile.source list;
  c_check : Sem.check;
}

type failure_kind =
  | Mismatch of { cls : string; detail : string }
      (** the oracle's verdict class + explanation *)
  | Crash of { exn_class : string; detail : string }
      (** the transformation pipeline raised: [Invalid_ir] from
          per-stage validation, or any other exception *)

type failure = {
  f_case : case;
  f_kind : failure_kind;
  f_bucket : string;  (** stable hash of the failure class *)
}

type run_outcome =
  | Passed
  | Skipped of string  (** the case does not compile — not a finding *)
  | Failed of failure

(** The stable bucket hash of a failure class.  [mode] tags region- and
    demand-mode failures into buckets of their own (the modes run
    different transformation code, so one failure class can be two
    bugs); [Whole] — the default — hashes identically to the pre-mode
    engine, so historical bucket directories stay valid. *)
val bucket_of_kind : ?mode:Policy.inline_mode -> failure_kind -> string

val run_case : ?interp_config:Interp.config -> case -> run_outcome

(** {2 Campaigns} *)

type stats = {
  st_runs : int;
  st_skipped : int;
  st_failures : int;  (** total failing cases (not distinct buckets) *)
  st_buckets : (string * failure * int) list;
      (** bucket hash, first failure seen, occurrence count — in
          first-seen order *)
}

(** Run [gen i] for [i = 0, 1, ...] until [max_runs] cases have run or
    [time_budget] seconds have elapsed (checked between cases).
    [on_failure] fires on every failing case, first manifestation or
    not. *)
val campaign :
  ?interp_config:Interp.config ->
  ?max_runs:int ->
  ?time_budget:float ->
  ?on_failure:(failure -> unit) ->
  gen:(int -> case) ->
  unit ->
  stats

val pp_stats : Format.formatter -> stats -> unit

(** {2 Repro artifacts} *)

(** Multi-module sources as one text, each module introduced by a
    ["// module NAME"] line — the format of corpus files and of the
    [repro.mc] the reducer emits. *)
val print_combined : Minic.Compile.source list -> string

val parse_combined : string -> Minic.Compile.source list

(** Write [repro.mc] (the combined sources), [repro.cmd] (a replay
    command line pinning config, mutation and any armed chaos
    bug) and [detail.txt] under [dir], creating it if needed. *)
val write_repro : dir:string -> failure -> unit
