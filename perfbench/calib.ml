(* Host speed.  On a shared host the speed a run gets drifts by tens of
   percent within minutes, with the other tenants' load, and moves a
   whole run's times together.  A fixed kernel, timed between ops,
   measures that speed: the end-to-end times are scaled by
   [reference_s] over the kernel's median time in the same window,
   that is, to what they would read on the reference host.

   The kernel runs in a child process forked at start-up, so it shares
   no heap and no collector with the program: nothing a change to the
   program allocates or retains can move the kernel's time.  It
   allocates the way the program does (a balanced map, a list, a sort),
   because the program's speed follows the host's memory system: with
   a memory-bound neighbour switched on and off, this kernel tracked
   compile_mix better than an allocation-free one. *)

module IM = Map.Make (Int)

let kernel () =
  let m = ref IM.empty in
  for i = 0 to 5_000 do
    m := IM.add (i * 7919 land 65535) i !m
  done;
  let s = IM.fold (fun k v acc -> acc + k + v) !m 0 in
  let l = List.init 20_000 (fun i -> i * 31 land 1023) in
  s + List.length (List.sort compare l)

(* The kernel's median time on the reference host, a 2-vCPU sandbox
   (OCaml 5, x86-64) on which the benchmark was defined. *)
let reference_s = 0.006

type t = { request : Unix.file_descr; reply : Unix.file_descr; pid : int }

let current = ref None

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

(* The child: one kernel run per request byte, answered with its time;
   it exits when the request pipe closes. *)
let serve request reply =
  let b = Bytes.create 8 in
  let rec loop () =
    if Unix.read request b 0 1 = 1 then begin
      Bytes.set_int64_le b 0 (Int64.bits_of_float (time kernel));
      ignore (Unix.write reply b 0 8);
      loop ()
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  Unix._exit 0

(* Fork the kernel's process.  Call before any domain or thread
   starts. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    serve req_r rep_w
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    current := Some { request = req_w; reply = rep_r; pid }

let stop () =
  Option.iter
    (fun t ->
      current := None;
      Unix.close t.request;
      Unix.close t.reply;
      ignore (Unix.waitpid [] t.pid))
    !current

let with_calibrator f =
  start ();
  Fun.protect ~finally:stop f

(* One timing of the kernel, in seconds. *)
let sample () =
  match !current with
  | None -> invalid_arg "Calib.sample: no calibrator"
  | Some t ->
    let b = Bytes.create 8 in
    if Unix.write_substring t.request "x" 0 1 <> 1
       || Unix.read t.reply b 0 8 <> 8
    then failwith "Calib.sample: the calibrator does not answer";
    Int64.float_of_bits (Bytes.get_int64_le b 0)

(* What a time measured while the kernel took [samples] reads on the
   reference host. *)
let scale samples = reference_s /. Stats.median samples
