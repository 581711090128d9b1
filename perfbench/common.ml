(* The pieces every workload shares: configuration, seeded draws, the
   closed loop, repeated set-up, per-op tracing and the determinism
   guard. *)

type cfg = { seed : int; seconds : float; trace : bool }

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Seeded draws.                                                       *)

(* The [k]th draw stream of a run: a function of (seed, salt, k) only,
   so a unit of work reads the same however many units precede it. *)
let rng cfg ~salt k = Random.State.make [| cfg.seed; salt; k |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The [k]th cover of [n] inputs: a seeded order of [0, n). *)
let cover cfg ~salt n k = shuffle (rng cfg ~salt k) (Array.init n Fun.id)

(* [memo f] caches [f k]. *)
let memo f =
  let tbl = Hashtbl.create 8 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.replace tbl k v;
      v

(* ------------------------------------------------------------------ *)
(* Set-up.                                                             *)

(* Set up at least [min_reps] times and for at least [min_setup_s];
   keep the last result, hand the others to [discard], and report the
   median time at the reference host speed (the kernel is timed after
   every set-up).  Cheap set-ups repeat often enough that their median
   is not one scheduler hiccup.  Each starts, off the clock, from a
   compacted heap, as in a fresh process: otherwise it pays for
   collecting the one before it. *)
let min_reps = 3
let max_reps = 200
let min_setup_s = 0.25

let repeated_setup ?(discard = ignore) f =
  let start = now () in
  let rec go k times cal =
    Gc.compact ();
    let t0 = now () in
    let v = f () in
    let times = (now () -. t0) :: times in
    let cal = Calib.sample () :: cal in
    if k + 1 >= max_reps || (k + 1 >= min_reps && now () -. start >= min_setup_s)
    then (v, Stats.median times *. Calib.scale cal)
    else begin
      discard v;
      go (k + 1) times cal
    end
  in
  go 0 [] []

(* ------------------------------------------------------------------ *)
(* The closed loop.                                                    *)

type window = {
  lat_ms : float list;  (** per completed op, in completion order *)
  busy_s : float;  (** the window's wall time less its kernel timings *)
  scale : float;  (** [Calib.scale] of the kernel timings in the window *)
  minor_gcs : int;
  major_gcs : int;
}

(* Op latencies and throughput at the reference host speed. *)
let op_ms w = List.map (fun ms -> ms *. w.scale) w.lat_ms

let ops_per_s w = float_of_int (List.length w.lat_ms) /. (w.busy_s *. w.scale)

(* A loop stops only at a multiple of [unit_size] ops (a whole cover of
   the input set), once [seconds] have passed and at least [min_ops]
   ops ran: every run then weighs each input equally, and the quality
   counts always see their full prefix. *)
let may_stop ~cfg ~unit_size ~min_ops ~t0 i =
  i mod unit_size = 0 && i >= min_ops && now () -. t0 >= cfg.seconds

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The kernel is timed at the start of a window and after any op that
   ends [cal_interval_s] or more after the last timing: a few percent of
   the window, and at least one timing per op for ops longer than
   that. *)
let cal_interval_s = 0.1

(* One client, sequential: ops [0, 1, ...] until [may_stop]. *)
let sequential ~cfg ~unit_size ~min_ops (op : int -> unit) : window =
  let minor0, major0 = gc_counts () in
  let cal = ref [] and cal_s = ref 0.0 and last_cal = ref neg_infinity in
  let calibrate () =
    let s = now () in
    cal := Calib.sample () :: !cal;
    last_cal := now ();
    cal_s := !cal_s +. (!last_cal -. s)
  in
  let t0 = now () in
  calibrate ();
  let rec go i acc =
    if may_stop ~cfg ~unit_size ~min_ops ~t0 i then acc
    else
      let s = now () in
      op i;
      let e = now () in
      if e -. !last_cal >= cal_interval_s then calibrate ();
      go (i + 1) (((e -. s) *. 1000.0) :: acc)
  in
  let lat = go 0 [] in
  let elapsed = now () -. t0 in
  let minor1, major1 = gc_counts () in
  { lat_ms = List.rev lat; busy_s = elapsed -. !cal_s; scale = Calib.scale !cal;
    minor_gcs = minor1 - minor0; major_gcs = major1 - major0 }

(* ------------------------------------------------------------------ *)
(* Tracing.                                                            *)

(* Run [f] as op [index] under a fresh collector of its own (single
   client workloads), so the op's spans, counters and decisions are
   exactly the collector's.  [None] when tracing is off. *)
let op_collector ~trace ~index f =
  if not trace then (f (), None)
  else begin
    let c = Telemetry.Collector.create () in
    Telemetry.Collector.install c;
    Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
    let v =
      Telemetry.Collector.with_span
        ~attrs:[ ("op", Telemetry.Event.Int index) ]
        Spans.op_span f
    in
    (v, Some c)
  end

(* A benchmark span around one public call; with [minor] the call's
   minor-heap allocation (words, this domain) is added to it. *)
let bench_span name ?minor f =
  match minor with
  | None -> Telemetry.Collector.with_span name f
  | Some acc ->
    Telemetry.Collector.with_span name @@ fun () ->
    let w0 = Gc.minor_words () in
    let v = f () in
    acc := !acc +. (Gc.minor_words () -. w0);
    v

let counter c name = Telemetry.Counters.get (Telemetry.Collector.counters c) name

let inline_decisions c =
  let n accepted =
    Telemetry.Collector.journal_count c ~kind:Telemetry.Event.Inline ~accepted
  in
  (n true, n true + n false)

(* Per-op rows of layer values; a metric is the median over ops. *)
type rows = (string, float list) Hashtbl.t

let rows () : rows = Hashtbl.create 32

let push (rows : rows) name v =
  Hashtbl.replace rows name
    (v :: Option.value ~default:[] (Hashtbl.find_opt rows name))

let row_median (rows : rows) name =
  match Hashtbl.find_opt rows name with
  | None | Some [] -> 0.0
  | Some vs -> Stats.median vs

let ms_of_us us = us /. 1000.0

(* The self-time layers every traced op reports, as catalogue names. *)
let layer_times =
  [ ("minic.ms", "minic"); ("opt.ms", "opt"); ("hlo.clean.ms", "hlo.clean");
    ("hlo.outline.ms", "hlo.outline"); ("hlo.clone.ms", "hlo.clone");
    ("hlo.inline.ms", "hlo.inline"); ("hlo.prune.ms", "hlo.prune");
    ("machine.layout.ms", "machine.layout"); ("machine.sim.ms", "machine.sim");
    ("interp.train.ms", "interp.train"); ("interp.run.ms", "interp.run") ]

let hlo_layers =
  [ "hlo"; "hlo.clean"; "hlo.outline"; "hlo.clone"; "hlo.inline"; "hlo.prune" ]

(* Push one op's self times: each layer, the whole of HLO (its own
   spans and its stages; the scalar optimizer it calls is [opt.ms])
   and the op's wall time. *)
let push_op_times rows (op : Spans.op) =
  List.iter
    (fun (metric, layer) -> push rows metric (ms_of_us (Spans.self_us op layer)))
    layer_times;
  push rows "hlo.ms"
    (ms_of_us
       (List.fold_left (fun acc l -> acc +. Spans.self_us op l) 0.0 hlo_layers));
  push rows "op.ms" (ms_of_us (Spans.wall_us op))

(* Sums over ops, for shares whose base is total op time. *)
let share_of_wall (ops : Spans.op list) layers =
  let wall = List.fold_left (fun acc o -> acc +. Spans.wall_us o) 0.0 ops in
  let part =
    List.fold_left
      (fun acc o ->
        acc +. List.fold_left (fun a l -> a +. Spans.self_us o l) 0.0 layers)
      0.0 ops
  in
  if wall = 0.0 then 0.0 else part /. wall

(* HLO report counts pinned by the determinism guard. *)
let report_counts (r : Hlo.Report.t) =
  [ ("passes", float_of_int r.Hlo.Report.passes_run);
    ("inlines", float_of_int r.Hlo.Report.inlines);
    ("clones", float_of_int r.Hlo.Report.clones_created);
    ("clone_replacements", float_of_int r.Hlo.Report.clone_replacements);
    ("deletions", float_of_int r.Hlo.Report.deletions);
    ("outlined", float_of_int r.Hlo.Report.outlined);
    ("cost_before", r.Hlo.Report.cost_before);
    ("cost_after", r.Hlo.Report.cost_after) ]

(* Report counts summed over the distinct inputs of a run. *)
let hlo_totals (reports : Hlo.Report.t list) =
  let sum f = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 reports in
  [ ("hlo.passes", sum (fun r -> r.Hlo.Report.passes_run));
    ("hlo.inlines", sum (fun r -> r.Hlo.Report.inlines));
    ("hlo.clones", sum (fun r -> r.Hlo.Report.clones_created));
    ("hlo.deletions", sum (fun r -> r.Hlo.Report.deletions)) ]

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)

type outcome = {
  setup_s : float;
  window : window;  (** the untraced window *)
  rss_mb : float;
  attempted : int;
  failed : int;
  correct : bool;
  quality : (string * float) list;  (** end-to-end quality counts *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  layer_scale : float;  (** the traced window's [scale] *)
  det : (string * float) list;  (** counts the determinism guard pins *)
}

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
          (fun kb -> kb /. 1024.0)
      else go ()
  in
  go ()

let overhead_share ~untraced ~traced =
  1.0 -. (ops_per_s traced /. ops_per_s untraced)

(* The windows of a run: one untraced window, and in a traced run a
   traced window after it; the tracing overhead compares the two.
   [window ~trace] runs one window; the peak RSS is read after the
   first. *)
let windows ~(cfg : cfg) (window : trace:bool -> window) =
  let first = window ~trace:false in
  let rss_mb = peak_rss_mb () in
  if not cfg.trace then (first, rss_mb, None)
  else
    let traced = window ~trace:true in
    (first, rss_mb, Some (traced, overhead_share ~untraced:first ~traced))

(* ------------------------------------------------------------------ *)
(* Determinism guard.                                                  *)

exception Nondeterministic of string

let pp_counts counts =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) counts)

(* Within a run: the same input must give the same counts every time
   it recurs. *)
let pin (tbl : (string, (string * float) list) Hashtbl.t) key counts =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key counts
  | Some first ->
    if first <> counts then
      raise
        (Nondeterministic
           (Printf.sprintf "%s: first [%s], now [%s]" key (pp_counts first)
              (pp_counts counts)))

let state_dir = Filename.concat "perfbench" "_runs"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Across runs: the counts of a (build, workload, seed) are recorded
   the first time and must read the same on every later run. *)
let guard_across_runs ~workload ~seed counts =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat state_dir
      (Printf.sprintf "det-%s-%d-%s.txt" workload seed (String.sub build 0 12))
  in
  let text = pp_counts counts in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let recorded =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    if recorded <> text then
      raise
        (Nondeterministic
           (Printf.sprintf "%s seed %d: recorded [%s], this run [%s]" workload
              seed recorded text))
  end
  else begin
    mkdir_p state_dir;
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp path
  end
