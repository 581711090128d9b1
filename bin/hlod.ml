(* hlod: the compile/optimize daemon.

   Binds a Unix-domain socket and serves the hlod2 protocol: compile
   requests (bit-identical to `hloc` whole-program mode), stats, ping
   and graceful shutdown.  The process owns the cross-request clone
   database and a content-addressed artifact store, so repeated
   compiles of the same modules are served without compiling at all.

     hlod --socket /tmp/hlod.sock --server-budget 4e9 &
     hlo_client compile a.mc b.mc --stats
     hlo_client shutdown *)

open Cmdliner

let serve socket server_budget request_budget queue_limit artifact_dir
    artifact_cap max_frame verbose =
  let socket =
    match socket with Some s -> s | None -> Serve.Client.default_socket ()
  in
  let config =
    { Serve.Service.default_config with
      server_budget; request_budget; queue_limit; artifact_dir; artifact_cap;
      max_frame }
  in
  match Serve.Server.start ~socket config with
  | exception Unix.Unix_error (e, _, _) ->
    `Error
      (false,
       Printf.sprintf "cannot listen on %s: %s" socket (Unix.error_message e))
  | server ->
    if verbose then
      Fmt.epr "[hlod] listening on %s (budget=%g)@." socket server_budget;
    let graceful _ = Serve.Server.stop server in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful)
     with Invalid_argument _ -> ());
    Serve.Server.wait server;
    if verbose then Fmt.epr "[hlod] shut down@.";
    `Ok ()

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (default: \
                 $(b,HLOD_SOCKET), else a per-user path in the temp \
                 directory).")

let server_budget =
  Arg.(value & opt float Serve.Service.default_config.Serve.Service.server_budget
       & info [ "server-budget" ] ~docv:"UNITS"
           ~doc:"Total Σ size² capacity granted to concurrently admitted \
                 requests; further requests queue.")

let request_budget =
  Arg.(value
       & opt float Serve.Service.default_config.Serve.Service.request_budget
       & info [ "request-budget" ] ~docv:"UNITS"
           ~doc:"Largest Σ size² estimate a single request may carry; \
                 bigger requests are rejected, not queued.")

let queue_limit =
  Arg.(value & opt int Serve.Service.default_config.Serve.Service.queue_limit
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Admission queue bound; requests beyond it are rejected \
                 with $(b,queue_full).")

let artifact_dir =
  Arg.(value & opt (some string) None
       & info [ "artifact-dir" ] ~docv:"DIR"
           ~doc:"Persist compile artifacts (content-addressed) under \
                 $(docv), surviving daemon restarts.")

let artifact_cap =
  Arg.(value & opt (some int) None
       & info [ "artifact-cap" ] ~docv:"N"
           ~doc:"Keep at most $(docv) artifacts per tier: the in-memory \
                 table evicts least-recently-used entries and the \
                 $(b,--artifact-dir) directory drops its oldest files.  \
                 Unset means unbounded.")

let max_frame =
  Arg.(value & opt int Serve.Protocol.default_max_frame
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Largest accepted request payload.")

let verbose =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Log lifecycle to stderr.")

let cmd =
  let doc = "compile-as-a-service daemon for MiniC (the hloc pipeline)" in
  let info = Cmd.info "hlod" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const serve $ socket $ server_budget $ request_budget
            $ queue_limit $ artifact_dir $ artifact_cap $ max_frame $ verbose))

let () = exit (Cmd.eval cmd)
