(** The hlod wire protocol: length-prefixed JSON frames over a stream.

    A frame is one ASCII header line

      hlod2 <payload-length>\n

    followed by exactly [payload-length] bytes of JSON.  The magic
    carries the protocol version (a server and client from different
    releases fail loudly instead of mis-parsing), the explicit length
    makes framing unambiguous without escaping, and the header stays
    printable so a hexdump of a socket capture reads itself.

    Reading is fail-safe in the {!Store} tradition: a malformed header,
    an oversized announced length or a truncated payload come back as
    values ([Closed] / [Malformed] / [Oversized]), never an exception,
    so a server can answer garbage with a structured error and keep
    serving. *)

val magic : string
(** ["hlod2"] — bumped when the frame or message format changes.
    [hlod2] dropped the [inline_mode] option: the policy text carries
    it, and a lenient decoder would otherwise compile an old client's
    region request as whole. *)

val default_max_frame : int
(** Default cap on payload bytes (16 MiB). *)

type frame_error =
  | Closed  (** clean EOF before the first header byte *)
  | Truncated  (** EOF inside the header or payload *)
  | Malformed of string  (** bad magic or unparsable length *)
  | Oversized of { announced : int; limit : int }

val frame_error_to_string : frame_error -> string

(** [read_frame ?max_bytes ic] reads one frame payload. *)
val read_frame : ?max_bytes:int -> in_channel -> (string, frame_error) result

(** [write_frame oc payload] writes header + payload and flushes. *)
val write_frame : out_channel -> string -> unit

(** {1 Messages} *)

(** Everything about a compile the daemon needs to reproduce `hloc`
    bit-for-bit: the flag set mirrors `hloc`'s whole-program mode.

    The knobs travel as {!options_of_config} writes them: scope,
    transform switches, [max_ops] and the resolved policy as canonical
    text.  [co_budget]/[co_passes] are read only when no policy text
    is sent — the fallback for clients that build these options field
    by field. *)
type compile_options = {
  co_scope : string;  (** "base" | "c" | "p" | "cp" *)
  co_budget : float;  (** fallback when [co_policy = None] *)
  co_passes : int;  (** fallback when [co_policy = None] *)
  co_inline : bool;
  co_clone : bool;
  co_max_ops : int option;
  co_policy : string option;
      (** canonical policy text ({!Policy.to_string}); overlays the
          tuned knobs on top of the flag-derived configuration, exactly
          as `hloc --policy` does in-process *)
  co_main : string;
  co_runner : string;  (** one of {!Pipeline.runners} *)
  co_stats : bool;
  co_dump_ir : bool;
  co_dump_profile : bool;
  co_dump_asm : bool;
  co_dump_journal : bool;
}

val default_options : compile_options

(** {2 The knob codec}

    [config_of_options (options_of_config c) = Ok c] for every
    configuration whose fields outside the scope, transform switches,
    [max_operations] and the policy are {!Hlo.Config.default}'s. *)

(** The wire form of [c]'s knobs, on top of [base]'s output selection
    (default: {!default_options}). *)
val options_of_config :
  ?base:compile_options -> Hlo.Config.t -> compile_options

(** The configuration the options resolve to: the flag fields, then
    the policy text overlaid, as `hloc --policy` does.  [Error] names
    an unknown scope, malformed policy text or, with no policy text,
    a [co_budget]/[co_passes] outside the policy ranges. *)
val config_of_options : compile_options -> (Hlo.Config.t, string) result

(** {!config_of_options}, also rejecting an unknown runner: the check
    every decoded request passes. *)
val resolve : compile_options -> (Hlo.Config.t, string) result

(** Whether a client with these options prints the output piece
    [name] (see {!Pipeline}). *)
val wants : compile_options -> string -> bool

type request =
  | Compile of {
      modules : (string * string) list;  (** module name, MiniC text *)
      options : compile_options;
    }
  | Stats
  | Ping
  | Shutdown

(** Structured admission-control verdict. *)
type reject = {
  rj_kind : string;
      (** "request_over_budget" | "queue_full" | "shutting_down" *)
  rj_cost : float;  (** estimated cost of the rejected request *)
  rj_limit : float;  (** the budget or queue bound that was exceeded *)
  rj_reason : string;  (** human-readable sentence *)
}

type response =
  | Compiled of {
      outputs : (string * string) list;
          (** ordered (channel, text) pieces: ["diag"] goes to stderr,
              everything else to stdout in list order *)
      cache : string;  (** "miss" | "hit" | "disk" | "coalesced" *)
      key : string;  (** content-address of the request *)
      queued : bool;  (** admission made the request wait *)
      elapsed_us : float;
    }
  | Failed of {
      kind : string;  (** "compile_error" | "trap" | "bad_request" *)
      reason : string;  (** what `hloc` would put in its error exit *)
      outputs : (string * string) list;
          (** pieces produced before the failure, same conventions *)
    }
  | Rejected of reject
  | Stats_reply of Telemetry.Json.t
  | Pong
  | Shutting_down

val request_to_json : request -> Telemetry.Json.t

(** Total: an absent option takes its {!default_options} value; an
    option of the wrong JSON type is [Error "ill-typed field: <name>"]
    (a non-object [options] too), and options that do not {!resolve}
    are an error. *)
val request_of_json : Telemetry.Json.t -> (request, string) result

val response_to_json : response -> Telemetry.Json.t
val response_of_json : Telemetry.Json.t -> (response, string) result

(** Encode + frame in one step. *)
val write_request : out_channel -> request -> unit

val write_response : out_channel -> response -> unit

(** Read + decode; a decode failure is [Error (Malformed _)]. *)
val read_request :
  ?max_bytes:int -> in_channel -> (request, frame_error) result

val read_response :
  ?max_bytes:int -> in_channel -> (response, frame_error) result
