(** Admission control for the compile daemon.

    The paper's compile-time budget — program cost [Σ size(R)²] — is
    reused here as a *serving* resource.  Every request carries an
    estimated cost in the same quadratic units; the server grants
    capacity from a fixed pool ([server_budget]), so one giant
    translation unit and a thousand small ones are commensurable.

    Verdicts are structured, never silent:
    - a request whose own cost exceeds [request_budget] (or the whole
      server pool) is rejected with ["request_over_budget"];
    - a request that fits but finds the pool busy *queues*, FIFO,
      unless the queue already holds [queue_limit] waiters — then it
      is rejected with ["queue_full"];
    - once {!close} has been called every admission attempt is
      rejected with ["shutting_down"] (in-flight work keeps its
      capacity until {!release}).

    All operations are thread-safe; {!admit} blocks. *)

type t

val create :
  server_budget:float -> request_budget:float -> queue_limit:int -> t

(** Cost estimate for a compile request: per module,
    [Ucode.Size.cost_of_size] of the instruction count a MiniC source
    of that byte length typically lowers to (~16 bytes
    per instruction).  An estimate on purpose — admission happens
    before any parsing — but quadratic like the real cost, so the
    skew between many small modules and one huge module survives. *)
val cost_of_modules : (string * string) list -> float

type ticket = {
  tk_cost : float;
  tk_queued : bool;  (** the request waited behind others *)
  tk_queued_us : float;  (** how long *)
}

(** Blocking admission.  [Ok ticket] grants [cost] of capacity — the
    caller must {!release} it exactly once.  [Error reject] is the
    structured refusal, ready to put on the wire. *)
val admit : t -> cost:float -> (ticket, Protocol.reject) result

val release : t -> ticket -> unit

(** Reject all current waiters and future admissions. *)
val close : t -> unit

type snapshot = {
  sn_in_use : float;  (** capacity currently granted *)
  sn_server_budget : float;
  sn_request_budget : float;
  sn_queue_limit : int;
  sn_waiting : int;  (** requests queued right now *)
  sn_admitted : int;  (** lifetime grants *)
  sn_queued : int;  (** grants that had to wait first *)
  sn_rejected_over_budget : int;
  sn_rejected_queue_full : int;
  sn_rejected_shutdown : int;
  sn_peak_waiting : int;
}

val snapshot : t -> snapshot
