(** The compile service.  See the interface for the request lifecycle;
    this file owns the shared stores (artifacts, admission, the
    in-flight coalescing table) and the one compile lock.

    Serializing the compile itself is a requirement, not a
    shortcut: the ambient telemetry collector — which is what captures
    the per-request decision journal — is process-global, so two
    compiles in flight would write into each other's journal.
    Concurrency lives where it pays: connection handling, frame
    parsing, cache lookups, coalescing and admission all overlap. *)

module J = Telemetry.Json
module P = Protocol

type config = {
  jobs : int;
  server_budget : float;
  request_budget : float;
  queue_limit : int;
  artifact_dir : string option;
  artifact_cap : int option;
  summary_cache : string option;
  max_frame : int;
}

let default_config =
  { jobs = 1; server_budget = 4.0e9; request_budget = 1.0e9;
    queue_limit = 256; artifact_dir = None; artifact_cap = None;
    summary_cache = None;
    max_frame = P.default_max_frame }

(* What a finished leader leaves for coalesced waiters: the output
   superset on success, or the verbatim failure/rejection response. *)
type outcome =
  | Superset of (string * string) list
  | Failure of P.response

type inflight = { mutable done_ : outcome option; resolved : Condition.t }

type t = {
  cfg : config;
  admission : Admission.t;
  artifacts : Artifacts.t;
  telem : Telemetry.Collector.t;  (** server-lifetime counters/spans *)
  lock : Mutex.t;  (** guards [inflight], [stopping], [active] *)
  inflight : (string, inflight) Hashtbl.t;
  compile_lock : Mutex.t;  (** one compile at a time (global collector) *)
  drained : Condition.t;
  mutable stopping : bool;
  mutable active : int;  (** compile requests inside {!handle} *)
}

let create cfg =
  (match cfg.summary_cache with
  | None -> ()
  | Some path -> ignore (Hlo.Summary_cache.load path : (int, string) result));
  { cfg;
    artifacts = Artifacts.create ?dir:cfg.artifact_dir ?cap:cfg.artifact_cap ();
    admission =
      Admission.create ~server_budget:cfg.server_budget
        ~request_budget:cfg.request_budget ~queue_limit:cfg.queue_limit;
    telem = Telemetry.Collector.create (); lock = Mutex.create ();
    inflight = Hashtbl.create 16; compile_lock = Mutex.create ();
    drained = Condition.create (); stopping = false; active = 0 }

let config t = t.cfg

let count t name = Telemetry.Collector.count_in t.telem name 1.0
let gauge t name v = Telemetry.Collector.gauge_in t.telem name v

(* ------------------------------------------------------------------ *)
(* Option plumbing.                                                    *)

let scope_of_string = function
  | "base" -> Hlo.Config.Base
  | "c" -> Hlo.Config.C
  | "p" -> Hlo.Config.P
  | "cp" -> Hlo.Config.CP
  | s -> invalid_arg ("Service: unknown scope " ^ s)

let inline_mode_of_string s =
  match Policy.inline_mode_of_name s with
  | Ok m -> m
  | Error msg -> invalid_arg ("Service: " ^ msg)

let hlo_config_of (o : P.compile_options) =
  Hlo.Config.with_scope
    { Hlo.Config.default with
      Hlo.Config.budget_percent = o.P.co_budget;
      pass_limit = o.P.co_passes; enable_inlining = o.P.co_inline;
      enable_cloning = o.P.co_clone; max_operations = o.P.co_max_ops;
      inline_mode = inline_mode_of_string o.P.co_inline_mode }
    (scope_of_string o.P.co_scope)

(* Everything that changes the computed output *superset* — and nothing
   that only changes which pieces a client asks to see (stats,
   dump_ir, dump_journal are selection, not computation).  The policy
   enters as its canonical hash, so a tuned compile and a default one
   of the same sources can never alias in the artifact store. *)
let options_canon (o : P.compile_options) =
  let policy =
    match o.P.co_policy with
    | None -> "-"
    | Some text -> (
      match Policy.of_string text with
      | Ok p -> Policy.hash p
      | Error _ -> "bad:" ^ Digest.to_hex (Digest.string text))
  in
  Printf.sprintf
    "scope=%s;budget=%h;passes=%d;inline=%b;clone=%b;max_ops=%s;mode=%s;\
     main=%s;runner=%s;profile=%b;asm=%b;policy=%s"
    o.P.co_scope o.P.co_budget o.P.co_passes o.P.co_inline o.P.co_clone
    (match o.P.co_max_ops with None -> "-" | Some n -> string_of_int n)
    o.P.co_inline_mode o.P.co_main o.P.co_runner o.P.co_dump_profile
    o.P.co_dump_asm policy

(* The pieces of the superset a given client printout wants, in
   `hloc`'s print order.  [diag] always rides along (it goes to
   stderr). *)
let select_outputs (superset : (string * string) list)
    (o : P.compile_options) : (string * string) list =
  let piece name = List.assoc_opt name superset in
  let want =
    [ ("diag", true);
      ("train", o.P.co_stats);
      ("profile", o.P.co_dump_profile);
      ("report", o.P.co_stats);
      ("ir", o.P.co_dump_ir);
      ("asm", o.P.co_dump_asm);
      ("journal", o.P.co_dump_journal);
      ("run_output", true);
      ("run_stats", o.P.co_stats) ]
  in
  List.filter_map
    (fun (name, wanted) ->
      if wanted then Option.map (fun text -> (name, text)) (piece name)
      else None)
    want

(* ------------------------------------------------------------------ *)
(* The compile itself — `hloc`'s whole-program mode, rendered through
   {!Render} so the bytes match the CLI exactly.                       *)

exception
  Compile_failed of {
    kind : string;
    reason : string;
    outputs : (string * string) list;
  }

let run_pipeline (modules : (string * string) list) (o : P.compile_options) :
    (string * string) list =
  let produced = ref [] in
  let emit name text = produced := (name, text) :: !produced in
  let fail kind reason =
    raise (Compile_failed { kind; reason; outputs = List.rev !produced })
  in
  try
    (* A malformed policy is the client's mistake; reject it before
       spending any compile work. *)
    let policy =
      match o.P.co_policy with
      | None -> None
      | Some text -> (
        match Policy.of_string text with
        | Ok p -> Some p
        | Error msg -> fail "bad_request" ("bad policy: " ^ msg))
    in
    let sources =
      List.map
        (fun (name, text) -> Minic.Compile.source ~module_name:name text)
        modules
    in
    let program, diags =
      Telemetry.Collector.with_span "minic.compile" (fun () ->
          Minic.Compile.compile_program ~main:o.P.co_main sources)
    in
    emit "diag" (Render.diag diags);
    let config =
      let base = hlo_config_of o in
      match policy with
      | None -> base
      | Some p -> Hlo.Config.of_policy ~base p
    in
    let profile =
      if config.Hlo.Config.use_profile then begin
        let r = Interp.train program in
        emit "train" (Render.train_line r);
        r.Interp.profile
      end
      else Ucode.Profile.empty
    in
    if o.P.co_dump_profile then emit "profile" (Render.profile profile);
    let result = Hlo.Driver.run ~config ~profile program in
    let optimized = result.Hlo.Driver.program in
    emit "report" (Render.report_line result.Hlo.Driver.report);
    emit "ir" (Render.ir optimized);
    if o.P.co_dump_asm then emit "asm" (Render.asm optimized);
    (match Telemetry.Collector.active () with
    | Some c -> emit "journal" (Render.journal (Telemetry.Collector.decisions c))
    | None -> emit "journal" "");
    (match o.P.co_runner with
    | "none" -> ()
    | "interp" ->
      let r = Interp.run optimized in
      emit "run_output" r.Interp.output;
      emit "run_stats" (Render.interp_stats_line r)
    | "sim" ->
      let r = Machine.Sim.run_program optimized in
      emit "run_output" r.Machine.Sim.output;
      emit "run_stats" (Render.sim_stats_line r)
    | r -> fail "bad_request" ("unknown runner " ^ r));
    List.rev !produced
  with
  | Compile_failed _ as e -> raise e
  | Minic.Diag.Compile_error diags ->
    raise
      (Compile_failed
         { kind = "compile_error"; reason = "compilation failed";
           outputs = [ ("diag", Render.diag diags) ] })
  | Ucode.Linker.Link_error msg -> fail "compile_error" ("link error: " ^ msg)
  | Sys_error msg -> fail "compile_error" msg
  | Interp.Trap (trap, where) ->
    fail "trap"
      (Printf.sprintf "trap in %s: %s" where (Interp.trap_message trap))
  | Machine.Sim.Trap (trap, pc) ->
    fail "trap"
      (Printf.sprintf "machine trap at %d: %s" pc
         (Machine.Sim.trap_message trap))
  | Hlo.Driver.Invalid_ir { stage; errors } ->
    fail "internal" (Printf.sprintf "invalid IR after %s: %s" stage errors)

(* Run the pipeline under the compile lock with a private collector
   installed, so the decision journal belongs to exactly this
   request.  The previously ambient collector (if any — tests install
   their own) is restored afterwards. *)
let compile_serialized t modules o =
  Mutex.lock t.compile_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.compile_lock) @@ fun () ->
  Telemetry.Collector.with_span_in t.telem "serve.compile" @@ fun () ->
  let prev = Telemetry.Collector.active () in
  let c = Telemetry.Collector.create () in
  Telemetry.Collector.install c;
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some p -> Telemetry.Collector.install p
      | None -> Telemetry.Collector.uninstall ())
    (fun () -> run_pipeline modules o)

(* ------------------------------------------------------------------ *)
(* Request handling.                                                   *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stopping t = locked t (fun () -> t.stopping)

let enter t =
  locked t @@ fun () ->
  if t.stopping then false
  else begin
    t.active <- t.active + 1;
    true
  end

let leave t =
  locked t @@ fun () ->
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.drained

let shutdown_reject : P.response =
  P.Rejected
    { P.rj_kind = "shutting_down"; rj_cost = 0.0; rj_limit = 0.0;
      rj_reason = "the server is shutting down" }

(* Resolve the in-flight entry for [key] and wake its waiters. *)
let resolve t key outcome =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.inflight key with
  | None -> ()
  | Some fl ->
    fl.done_ <- Some outcome;
    Hashtbl.remove t.inflight key;
    Condition.broadcast fl.resolved

let handle_compile t modules (o : P.compile_options) : P.response =
  let t0 = Telemetry.Clock.now_us () in
  let key = Artifacts.key ~modules ~options_canon:(options_canon o) in
  let elapsed () = Telemetry.Clock.now_us () -. t0 in
  let compiled ~cache ~queued superset =
    P.Compiled
      { outputs = select_outputs superset o; cache; key; queued;
        elapsed_us = elapsed () }
  in
  match Artifacts.find t.artifacts key with
  | Some (superset, kind) ->
    count t "serve.cache.hit";
    compiled
      ~cache:(match kind with Artifacts.Memory -> "hit" | Artifacts.Disk -> "disk")
      ~queued:false superset
  | None -> (
    (* Leader or coalesced waiter? *)
    let role =
      locked t @@ fun () ->
      match Artifacts.find t.artifacts key with
      | Some (superset, _) -> `Hit superset
      | None -> (
        match Hashtbl.find_opt t.inflight key with
        | Some fl -> `Wait fl
        | None ->
          let fl = { done_ = None; resolved = Condition.create () } in
          Hashtbl.replace t.inflight key fl;
          `Lead)
    in
    match role with
    | `Hit superset ->
      count t "serve.cache.hit";
      compiled ~cache:"hit" ~queued:false superset
    | `Wait fl -> (
      count t "serve.coalesced";
      let outcome =
        locked t @@ fun () ->
        while fl.done_ = None do
          Condition.wait fl.resolved t.lock
        done;
        Option.get fl.done_
      in
      match outcome with
      | Superset superset -> compiled ~cache:"coalesced" ~queued:false superset
      | Failure resp -> resp)
    | `Lead -> (
      let cost = Admission.cost_of_modules modules in
      match Admission.admit t.admission ~cost with
      | Error rej ->
        count t ("serve.rejected." ^ rej.P.rj_kind);
        let resp = P.Rejected rej in
        resolve t key (Failure resp);
        resp
      | Ok ticket ->
        let finish outcome resp =
          Admission.release t.admission ticket;
          resolve t key outcome;
          resp
        in
        if ticket.Admission.tk_queued then begin
          count t "serve.queued";
          Telemetry.Collector.count_in t.telem "serve.queued_us"
            ticket.Admission.tk_queued_us
        end;
        gauge t "serve.queue_depth"
          (float_of_int (Admission.snapshot t.admission).Admission.sn_waiting);
        (match compile_serialized t modules o with
        | superset ->
          count t "serve.compiled";
          Artifacts.add t.artifacts key superset;
          finish (Superset superset)
            (compiled ~cache:"miss" ~queued:ticket.Admission.tk_queued
               superset)
        | exception Compile_failed { kind; reason; outputs } ->
          count t "serve.failed";
          let resp = P.Failed { kind; reason; outputs } in
          finish (Failure resp) resp
        | exception e ->
          count t "serve.failed";
          let resp =
            P.Failed
              { kind = "internal"; reason = Printexc.to_string e;
                outputs = [] }
          in
          finish (Failure resp) resp)))

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let stats_json t : J.t =
  let adm = Admission.snapshot t.admission in
  let art = Artifacts.snapshot t.artifacts in
  let sc = Hlo.Summary_cache.stats () in
  let cdb = Hlo.Clone_db.stats () in
  let counters =
    J.Assoc
      (List.map
         (fun (name, v) -> (name, J.Float v))
         (Telemetry.Counters.to_sorted_list
            (Telemetry.Collector.counters t.telem)))
  in
  J.Assoc
    [ ( "admission",
        J.Assoc
          [ ("in_use", J.Float adm.Admission.sn_in_use);
            ("server_budget", J.Float adm.Admission.sn_server_budget);
            ("request_budget", J.Float adm.Admission.sn_request_budget);
            ("queue_limit", J.Int adm.Admission.sn_queue_limit);
            ("waiting", J.Int adm.Admission.sn_waiting);
            ("admitted", J.Int adm.Admission.sn_admitted);
            ("queued", J.Int adm.Admission.sn_queued);
            ("rejected_over_budget",
             J.Int adm.Admission.sn_rejected_over_budget);
            ("rejected_queue_full",
             J.Int adm.Admission.sn_rejected_queue_full);
            ("rejected_shutdown", J.Int adm.Admission.sn_rejected_shutdown);
            ("peak_waiting", J.Int adm.Admission.sn_peak_waiting) ] );
      ( "artifacts",
        J.Assoc
          [ ("entries", J.Int art.Artifacts.sn_entries);
            ("memory_hits", J.Int art.Artifacts.sn_mem_hits);
            ("disk_hits", J.Int art.Artifacts.sn_disk_hits);
            ("misses", J.Int art.Artifacts.sn_misses);
            ("insertions", J.Int art.Artifacts.sn_insertions);
            ("evictions", J.Int art.Artifacts.sn_evictions);
            ("disk_evictions", J.Int art.Artifacts.sn_disk_evictions);
            ("disk_errors", J.Int art.Artifacts.sn_disk_errors) ] );
      ( "summary_cache",
        J.Assoc
          [ ("hits", J.Int sc.Hlo.Summary_cache.hits);
            ("misses", J.Int sc.Hlo.Summary_cache.misses);
            ("entries", J.Int sc.Hlo.Summary_cache.entries);
            ("loaded", J.Int sc.Hlo.Summary_cache.loaded) ] );
      ( "clone_db",
        J.Assoc
          [ ("hits", J.Int cdb.Hlo.Clone_db.hits);
            ("misses", J.Int cdb.Hlo.Clone_db.misses);
            ("entries", J.Int cdb.Hlo.Clone_db.entries) ] );
      ("counters", counters) ]

(* ------------------------------------------------------------------ *)

let handle t (req : P.request) : P.response =
  try
    match req with
    | P.Ping ->
      count t "serve.requests.ping";
      P.Pong
    | P.Stats ->
      count t "serve.requests.stats";
      P.Stats_reply (stats_json t)
    | P.Shutdown ->
      count t "serve.requests.shutdown";
      (* The server layer drains before replying; handled there. *)
      P.Shutting_down
    | P.Compile { modules; options } ->
      count t "serve.requests.compile";
      if not (enter t) then shutdown_reject
      else
        Fun.protect
          ~finally:(fun () -> leave t)
          (fun () -> handle_compile t modules options)
  with e ->
    P.Failed
      { kind = "internal"; reason = Printexc.to_string e; outputs = [] }

let stop t =
  locked t (fun () -> t.stopping <- true);
  Admission.close t.admission

let drain t =
  locked t (fun () ->
      while t.active > 0 do
        Condition.wait t.drained t.lock
      done);
  match t.cfg.summary_cache with
  | None -> ()
  | Some path -> ignore (Hlo.Summary_cache.save path : (unit, string) result)
