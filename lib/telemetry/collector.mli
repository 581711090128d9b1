(** The telemetry collector and its ambient (process-global) API.

    A collector gathers spans, decision-journal entries and counters.
    Instrumented code does not thread a collector value around —
    it calls the ambient functions ({!with_span}, {!count},
    {!decision}, …), which act on the currently installed collector
    and are a single branch ([None] check) when none is installed.
    This keeps the instrumentation free in production: the disabled
    cost of every event is one match on a [ref], verified by the bench
    guard in [bench/main.ml].

    Domain-safe: the event list and counters are mutex-guarded, and
    each domain keeps its own open-span stack (a span opened on one
    domain closes on that domain), so compiles running on several
    domains can emit spans and counters concurrently without losing
    events.
    [install]/[uninstall] are expected from the main domain only. *)

type t

val create : unit -> t

(** {1 Reading out} *)

(** All finished events, oldest (earliest span end / decision time)
    first. *)
val events : t -> Event.t list

(** Finished spans only, oldest end first. *)
val spans : t -> Event.span list

(** The decision journal, oldest first. *)
val decisions : t -> Event.decision list

val counters : t -> Counters.t

(** Decision-journal entries matching kind and verdict, e.g.
    [journal_count t ~kind:Event.Inline ~accepted:true]. *)
val journal_count : t -> kind:Event.decision_kind -> accepted:bool -> int

(** {1 The ambient collector} *)

(** Install [t] as the process-global collector.  Replaces any
    previously installed one. *)
val install : t -> unit

(** Remove the ambient collector; all ambient calls become no-ops. *)
val uninstall : unit -> unit

val active : unit -> t option
val enabled : unit -> bool

(** {1 Ambient instrumentation API}

    All of these are no-ops (one branch) when no collector is
    installed. *)

(** [with_span name f] times [f] as a span nested under the innermost
    open span.  The span is recorded even if [f] raises. *)
val with_span : ?attrs:Event.attrs -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span. *)
val annotate : string -> Event.value -> unit

(** Bump a counter by an integer amount. *)
val count : string -> int -> unit

(** Set a gauge. *)
val gauge : string -> float -> unit

(** Append one decision-journal entry. *)
val decision :
  kind:Event.decision_kind ->
  verdict:Event.verdict ->
  ?context:string ->
  ?site:int ->
  ?score:float ->
  ?pass:int ->
  string ->
  unit

(** {1 Direct (per-instance) API — used by tests and the sinks} *)

val with_span_in : t -> ?attrs:Event.attrs -> string -> (unit -> 'a) -> 'a
val count_in : t -> string -> float -> unit
val gauge_in : t -> string -> float -> unit
