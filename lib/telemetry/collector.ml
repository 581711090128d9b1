(* The collector: an append-only event list (newest first), per-domain
   stacks of open spans, and a counter table.  Spans are recorded when
   they close, so [events] is ordered by completion; [sp_depth]
   preserves the nesting each domain's stack saw and [sp_domain] says
   which domain ran the span.

   Domain safety: the event list and the counters are shared and
   guarded by [lock]; the open-span stack is domain-local state (a
   span opened on one domain cannot close on another), kept in
   domain-local storage so concurrent spans never interleave their
   nesting.  Each collector gets its own DLS key, so independent
   collectors on the same domain do not share stacks. *)

type open_span = {
  os_name : string;
  os_start_us : float;
  os_depth : int;
  mutable os_attrs : Event.attrs;
}

type t = {
  lock : Mutex.t;
  mutable evs : Event.t list;  (* newest first *)
  stack_key : open_span list ref Domain.DLS.key;  (* innermost first *)
  ctrs : Counters.t;
}

let create () =
  { lock = Mutex.create (); evs = [];
    stack_key = Domain.DLS.new_key (fun () -> ref []);
    ctrs = Counters.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let events t = locked t (fun () -> List.rev t.evs)

let spans t =
  List.filter_map (function Event.Span s -> Some s | _ -> None) (events t)

let decisions t =
  List.filter_map (function Event.Decision d -> Some d | _ -> None) (events t)

let counters t = t.ctrs

let journal_count t ~kind ~accepted =
  List.length
    (List.filter
       (fun (d : Event.decision) ->
         d.Event.d_kind = kind
         &&
         match d.Event.d_verdict with
         | Event.Accepted -> accepted
         | Event.Rejected _ -> not accepted)
       (decisions t))

(* ------------------------------------------------------------------ *)
(* Per-instance operations.                                            *)

let stack t = Domain.DLS.get t.stack_key

let begin_span_in t ?(attrs = []) name =
  let st = stack t in
  st :=
    { os_name = name; os_start_us = Clock.now_us ();
      os_depth = List.length !st; os_attrs = attrs }
    :: !st

let end_span_in t =
  let st = stack t in
  match !st with
  | [] -> ()  (* unbalanced end: drop rather than corrupt *)
  | os :: rest ->
    st := rest;
    let now = Clock.now_us () in
    let span =
      Event.Span
        { Event.sp_name = os.os_name; sp_start_us = os.os_start_us;
          sp_dur_us = now -. os.os_start_us; sp_depth = os.os_depth;
          sp_domain = (Domain.self () :> int);
          sp_attrs = List.rev os.os_attrs }
    in
    locked t (fun () -> t.evs <- span :: t.evs)

let with_span_in t ?attrs name f =
  begin_span_in t ?attrs name;
  Fun.protect ~finally:(fun () -> end_span_in t) f

let annotate_in t key value =
  match !(stack t) with
  | [] -> ()
  | os :: _ -> os.os_attrs <- (key, value) :: os.os_attrs

let count_in t name v = locked t (fun () -> Counters.add t.ctrs name v)
let gauge_in t name v = locked t (fun () -> Counters.set t.ctrs name v)

let decision_in t ~kind ~verdict ?(context = "") ?(site = -1) ?(score = 0.0)
    ?(pass = -1) subject =
  let d =
    Event.Decision
      { Event.d_kind = kind; d_verdict = verdict; d_subject = subject;
        d_context = context; d_site = site; d_score = score; d_pass = pass;
        d_time_us = Clock.now_us () }
  in
  locked t (fun () -> t.evs <- d :: t.evs)

(* ------------------------------------------------------------------ *)
(* The ambient collector.                                              *)

let ambient : t option ref = ref None

let install t = ambient := Some t
let uninstall () = ambient := None
let active () = !ambient
let enabled () = Option.is_some !ambient

let with_span ?attrs name f =
  match !ambient with
  | None -> f ()
  | Some t -> with_span_in t ?attrs name f

let annotate key value =
  match !ambient with None -> () | Some t -> annotate_in t key value

let count name v =
  match !ambient with
  | None -> ()
  | Some t -> count_in t name (float_of_int v)

let gauge name v =
  match !ambient with None -> () | Some t -> gauge_in t name v

let decision ~kind ~verdict ?context ?site ?score ?pass subject =
  match !ambient with
  | None -> ()
  | Some t -> decision_in t ~kind ~verdict ?context ?site ?score ?pass subject
