(* Self time per layer from a collector's spans.

   A span's self time is its duration minus the part covered by its
   direct children.  Spans nest by interval containment on the domain
   that ran them; every span that lies inside a [bench.op] span is
   charged to that op.  The layer of a span is a function of its name
   (see [layer_of]), so an op's wall time is exactly the sum of its
   layers' self times plus the op span's own self time (the time no
   layer span covers). *)

module E = Telemetry.Event

let op_span = "bench.op"

(* The benchmark's own spans around public calls are named
   [bench.<layer>]; the program's spans are named after their module
   and stage.  Returns the layer key a span's self time is charged
   to. *)
let layer_of name =
  match name with
  | "bench.op" -> "op.self"
  | "bench.minic" | "minic.parse" | "minic.lower" | "minic.compile" -> "minic"
  | "bench.hlo" | "hlo.run" | "hlo.pass" -> "hlo"
  | "hlo.clean" | "hlo.outline" | "hlo.clone" | "hlo.inline" | "hlo.prune" ->
    name
  | "bench.layout" | "machine.layout" -> "machine.layout"
  | "machine.sim" -> "machine.sim"
  | "interp.train" -> "interp.train"
  | "interp.run" -> "interp.run"
  | _ ->
    if String.length name > 4 && String.sub name 0 4 = "opt." then "opt"
    else "other"

type op = {
  op_span : E.span;
  op_index : int;  (** the [op] attribute of the op span *)
  self : (string, float) Hashtbl.t;  (** layer -> self time, us *)
  counts : (string, int) Hashtbl.t;  (** span name -> occurrences *)
}

let span_end (s : E.span) = s.E.sp_start_us +. s.E.sp_dur_us

let op_index (s : E.span) =
  match List.assoc_opt "op" s.E.sp_attrs with Some (E.Int i) -> i | _ -> -1

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Attribute every span to its enclosing op.  Spans outside any op are
   ignored.  Ops come back in start order. *)
let ops (spans : E.span list) : op list =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (s : E.span) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_domain s.E.sp_domain) in
      Hashtbl.replace by_domain s.E.sp_domain (s :: l))
    spans;
  let result = ref [] in
  (* (op, layer, self time) for every attributed span; a self time is
     final only once all of the span's children have been seen. *)
  let charges = ref [] in
  Hashtbl.iter
    (fun _ domain_spans ->
      (* Parents sort before their children: earlier start, or the same
         start and the longer duration. *)
      let sorted =
        List.sort
          (fun (a : E.span) (b : E.span) ->
            match Float.compare a.E.sp_start_us b.E.sp_start_us with
            | 0 -> Float.compare b.E.sp_dur_us a.E.sp_dur_us
            | c -> c)
          domain_spans
      in
      let stack = ref [] (* (span, self, op), innermost first *) in
      List.iter
        (fun (s : E.span) ->
          let rec pop () =
            match !stack with
            | (top, _, _) :: rest when span_end top <= s.E.sp_start_us ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          let op =
            if s.E.sp_name = op_span then begin
              let o =
                { op_span = s; op_index = op_index s;
                  self = Hashtbl.create 16; counts = Hashtbl.create 16 }
              in
              result := o :: !result;
              Some o
            end
            else match !stack with (_, _, o) :: _ -> o | [] -> None
          in
          (match !stack with
          | (_, parent_self, _) :: _ ->
            parent_self := !parent_self -. s.E.sp_dur_us
          | [] -> ());
          let self = ref s.E.sp_dur_us in
          stack := (s, self, op) :: !stack;
          match op with
          | Some o ->
            bump o.counts s.E.sp_name;
            charges := (o, layer_of s.E.sp_name, self) :: !charges
          | None -> ())
        sorted)
    by_domain;
  List.iter (fun (o, layer, self) -> add o.self layer !self) !charges;
  List.sort
    (fun a b -> Float.compare a.op_span.E.sp_start_us b.op_span.E.sp_start_us)
    !result

let self_us op layer = Option.value ~default:0.0 (Hashtbl.find_opt op.self layer)
let count op name = Option.value ~default:0 (Hashtbl.find_opt op.counts name)
let wall_us op = op.op_span.E.sp_dur_us

(* Layers' self times plus the op's own: must equal the op's wall time. *)
let accounted_us op = Hashtbl.fold (fun _ v acc -> acc +. v) op.self 0.0
