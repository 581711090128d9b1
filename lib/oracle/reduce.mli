(** Delta-debugging reducer for failing fuzz cases.

    Shrinks a failing (program, config, profile-mutation) triple to a
    minimal repro: statement-level ddmin over each module's source,
    dropping of emptied modules, then config / mutation
    simplification — all while re-checking that the candidate still
    fails into the *same bucket*, so reduction cannot wander off to a
    different bug. *)

(** Zeller–Hildebrandt ddmin over a list: returns a subset that still
    satisfies [test], 1-minimal with respect to chunk removal.  If the
    full list does not satisfy [test], it is returned unchanged. *)
val ddmin : test:('a list -> bool) -> 'a list -> 'a list

(** One statement (or brace) per line, comments stripped — the
    granularity ddmin removes at.  Splits after [;], [{] and [}], but
    never inside parentheses, so a [for] header stays atomic. *)
val split_statements : string -> string list

type t = {
  r_case : Fuzz.case;        (** the reduced, still-failing case *)
  r_failure : Fuzz.failure;  (** its failure (same bucket) *)
  r_lines : int;  (** lines of the reduced case, as {!split_statements} counts *)
  r_tests : int;             (** oracle evaluations spent reducing *)
}

(** [reduce failure] shrinks [failure.f_case], keeping only candidates
    that reproduce the original bucket. *)
val reduce : ?interp_config:Interp.config -> Fuzz.failure -> t
