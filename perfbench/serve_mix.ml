(* serve_mix: one client connection in a closed loop against an
   in-process hlod (Serve.Server.start) on a Unix socket.  Each op is a
   compile of one suite program at train input under the default policy
   (half the requests) or policies/specint92.policy or
   policies/specint95.policy (a quarter each).  The artifact store is
   bounded below the 42 distinct requests, so misses and hits both
   recur for the whole window instead of the store warming up once. *)

module P = Serve.Protocol
module S = Workloads.Suite
module C = Common

(* LRU capacity of the daemon's artifact store, in requests. *)
let artifact_cap = 16

let policy_files = [ "policies/specint92.policy"; "policies/specint95.policy" ]

type request = {
  bench : S.benchmark;
  modules : (string * string) list;
  policy : Policy.t option;
  options : P.compile_options;
}

let load_policy path =
  match Policy.load ~path with
  | Ok (Some p) -> p
  | Ok None -> failwith (path ^ ": no such policy file")
  | Error e -> failwith (path ^ ": " ^ e)

(* Requests indexed [benchmark * 3 + policy], policy 0 = default. *)
let requests () =
  let policies = None :: List.map (fun f -> Some (load_policy f)) policy_files in
  Array.of_list
    (List.concat_map
       (fun b ->
         let modules =
           List.map
             (fun s -> (s.Minic.Compile.src_module, s.Minic.Compile.src_text))
             (S.sources b ~input:S.Train)
         in
         List.map
           (fun policy ->
             { bench = b; modules; policy;
               options =
                 { P.default_options with
                   P.co_runner = "none"; co_stats = true; co_dump_ir = true;
                   co_policy = Option.map Policy.to_string policy } })
           policies)
       S.all)

(* The bytes in-process hloc prints for a request, computed here from
   the public pipeline and Serve.Render: the reference every reply is
   checked against. *)
let reference r =
  let sources =
    List.map (fun (name, text) -> Minic.Compile.source ~module_name:name text) r.modules
  in
  let program, diags = Minic.Compile.compile_program ~main:"main" sources in
  let base =
    Hlo.Config.with_scope
      { Hlo.Config.default with
        Hlo.Config.budget_percent = r.options.P.co_budget;
        pass_limit = r.options.P.co_passes; enable_inlining = true;
        enable_cloning = true; max_operations = None;
        inline_mode = Policy.Whole }
      Hlo.Config.CP
  in
  let config =
    match r.policy with None -> base | Some p -> Hlo.Config.of_policy ~base p
  in
  let train = Interp.train program in
  let result = Hlo.Driver.run ~config ~profile:train.Interp.profile program in
  [ ("diag", Serve.Render.diag diags); ("train", Serve.Render.train_line train);
    ("report", Serve.Render.report_line result.Hlo.Driver.report);
    ("ir", Serve.Render.ir result.Hlo.Driver.program) ]

(* A reply's outputs are kept as a digest until the check: the full
   texts of a window's replies would add tens of megabytes of the
   benchmark's own to the process's peak RSS, which measures the
   daemon. *)
let digest (outputs : (string * string) list) =
  Digest.string
    (String.concat "\000" (List.concat_map (fun (k, v) -> [ k; v ]) outputs))

type reply = {
  req : int;
  client_ms : float;
  outputs : Digest.t;
  cache : string;
  queued : bool;
  server_ms : float;
}

(* A cover visits the benchmarks in a seeded order, sending each one's
   requests as default, specint92, default, specint95: the default
   policy is half the traffic and its repeat is a hit.  A cover asks
   for all 42 distinct requests and the store keeps 16, so each cover
   compiles the same 42 and serves the same 14 hits whatever the seed;
   a random mix made the hit share, and so ops_per_s, swing by ~20%
   from seed to seed. *)
let group = [| 0; 1; 0; 2 |]

let cover_size = List.length S.all * Array.length group

let cover cfg k =
  let order = C.cover cfg ~salt:4 (List.length S.all) k in
  Array.init cover_size (fun i ->
      (order.(i / Array.length group) * 3) + group.(i mod Array.length group))

let socket_path () =
  C.mkdir_p C.state_dir;
  Filename.concat C.state_dir (Printf.sprintf "hlod-%d.sock" (Unix.getpid ()))

(* Set-up is a daemon's cold start: listening, and its first compile
   answered.  That compile leaves one artifact in the store. *)
let start_server socket first =
  let server =
    Serve.Server.start ~socket
      { Serve.Service.default_config with
        Serve.Service.jobs = 1; artifact_cap = Some artifact_cap }
  in
  let answered =
    match Serve.Client.connect socket with
    | Error _ -> false
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      match
        Serve.Client.roundtrip c
          (P.Compile { modules = first.modules; options = first.options })
      with
      | Ok (P.Compiled _) -> true
      | _ -> false
  in
  if not answered then begin
    Serve.Server.stop server;
    failwith "serve_mix: the daemon does not answer a compile"
  end;
  server

let run (cfg : C.cfg) : C.outcome =
  let socket = socket_path () in
  let (requests, server), setup_s =
    C.repeated_setup
      ~discard:(fun (_, server) -> Serve.Server.stop server)
      (fun () ->
        let requests = requests () in
        (requests, start_server socket requests.(0)))
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let nreq = Array.length requests in
  let cover = C.memo (cover cfg) in
  let unit_size = cover_size in
  let request_of i = (cover (i / unit_size)).(i mod unit_size) in
  let replies = ref [] and failed = ref 0 and attempted = ref 0 in
  let op conn i =
    let req = request_of i in
    let r = requests.(req) in
    let t0 = C.now () in
    let resp =
      Serve.Client.roundtrip conn
        (P.Compile { modules = r.modules; options = r.options })
    in
    let client_ms = (C.now () -. t0) *. 1000.0 in
    incr attempted;
    match resp with
    | Ok (P.Compiled { outputs; cache; queued; elapsed_us; _ }) ->
      replies :=
        { req; client_ms; outputs = digest outputs; cache; queued;
          server_ms = elapsed_us /. 1000.0 }
        :: !replies
    | Ok (P.Failed { kind; reason; _ }) ->
      incr failed;
      Printf.eprintf "serve_mix: %s failed (%s): %s\n%!" r.bench.S.b_name kind reason
    | Ok (P.Rejected rj) ->
      incr failed;
      Printf.eprintf "serve_mix: %s rejected: %s\n%!" r.bench.S.b_name rj.P.rj_reason
    | Ok _ ->
      incr failed;
      Printf.eprintf "serve_mix: %s: unexpected reply\n%!" r.bench.S.b_name
    | Error e ->
      incr failed;
      Printf.eprintf "serve_mix: %s: %s\n%!" r.bench.S.b_name e
  in
  let window () =
    (* The client is a thread of the daemon's own domain.  With one
       request in flight it never waits for the runtime lock, and a
       second, mostly blocked domain would have to join every
       stop-the-world minor collection of the compiles: on a noisy host
       that swung ops_per_s by 60% between passes.  (Two concurrent
       client connections made the daemon's connection threads queue
       for the runtime lock, and swung ops_per_s by over 30%.) *)
    let conn =
      match Serve.Client.connect socket with Ok c -> c | Error e -> failwith e
    in
    Fun.protect ~finally:(fun () -> Serve.Client.close conn) @@ fun () ->
    C.sequential ~cfg ~unit_size ~min_ops:unit_size (op conn)
  in
  let untraced = window () in
  let rss_mb = C.peak_rss_mb () in
  let untraced_replies = !replies in
  (* The daemon compiles under a private collector of its own, so the
     traced window's per-layer figures come from the replies; the
     collector installed here sees only what runs outside the daemon's
     compile lock. *)
  let traced =
    if not cfg.C.trace then None
    else begin
      replies := [];
      let c = Telemetry.Collector.create () in
      Telemetry.Collector.install c;
      let tw = Fun.protect ~finally:Telemetry.Collector.uninstall window in
      Some (tw, !replies, C.overhead_share ~untraced ~traced:tw)
    end
  in
  let all_replies = untraced_replies @ !replies in
  (* Checks, outside the windows: every reply equals the in-process
     render of its request, so a hit also equals its miss. *)
  let expected = Hashtbl.create nreq in
  let mismatches =
    List.length
      (List.filter
         (fun rp ->
           let want =
             match Hashtbl.find_opt expected rp.req with
             | Some w -> w
             | None ->
               let w = digest (reference requests.(rp.req)) in
               Hashtbl.replace expected rp.req w;
               w
           in
           if rp.outputs = want then false
           else begin
             Printf.eprintf "serve_mix: %s reply (%s) differs from the in-process render\n%!"
               requests.(rp.req).bench.S.b_name rp.cache;
             true
           end)
         all_replies)
  in
  let layers =
    match traced with
    | None -> []
    | Some (tw, rs, overhead) ->
      let n = float_of_int (max 1 (List.length rs)) in
      let share p = float_of_int (List.length (List.filter p rs)) /. n in
      let med f rs = match rs with [] -> 0.0 | _ -> Stats.median (List.map f rs) in
      let nops = float_of_int (List.length tw.C.lat_ms) in
      [ ("op.ms", Stats.median tw.C.lat_ms);
        ("serve.hit_share", share (fun r -> r.cache = "hit" || r.cache = "disk"));
        (* Both 0 by construction with one request in flight; they
           are reported so a concurrent mix can be compared later. *)
        ("serve.coalesced_share", share (fun r -> r.cache = "coalesced"));
        ("serve.queued_share", share (fun r -> r.queued));
        ("serve.server_ms_p50", med (fun r -> r.server_ms) rs);
        ("serve.wire_ms_p50", med (fun r -> r.client_ms -. r.server_ms) rs);
        ("serve.miss_ms_p50",
         med (fun r -> r.client_ms) (List.filter (fun r -> r.cache = "miss") rs));
        ("gc.minor_collections", float_of_int tw.C.minor_gcs /. nops);
        ("gc.major_collections", float_of_int tw.C.major_gcs /. nops);
        ("trace.overhead_share", overhead) ]
  in
  { C.setup_s; window = untraced; rss_mb; attempted = !attempted;
    failed = !failed + mismatches; correct = !failed + mismatches = 0; quality = [];
    layers; layer_scale = (match traced with Some (tw, _, _) -> tw.C.scale | None -> 1.0); det = [] }
