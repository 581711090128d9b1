(* The compare command: two result sets (JSON-lines files written by
   [run --out]), per workload and metric each side's median and
   quartiles, and whether the move exceeds the metric's bound from
   BENCHMARK.json.  A metric whose run-to-run spread is wider than its
   bound is "unresolved" unless every new run beats every old one. *)

module J = Telemetry.Json

type verdict = Same | Better | Worse | Unresolved | Unbounded

let verdict_name = function
  | Same -> "within bound"
  | Better -> "better"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"
  | Unbounded -> "-"

(* name -> bound, for the end-to-end metrics of a BENCHMARK.json. *)
let bounds_of_benchmark path =
  let text =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match J.of_string text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok json ->
    let metrics = Option.value ~default:[] (Option.bind (J.member "end_to_end" json) J.to_list_opt) in
    Ok
      (List.filter_map
         (fun m ->
           match
             ( Option.bind (J.member "name" m) J.to_string_opt,
               Option.bind (J.member "bound" m) J.to_number )
           with
           | Some name, Some bound -> Some (name, bound)
           | _ -> None)
         metrics)

(* Signed change of [next] against [base] in the metric's good
   direction: positive is better. *)
let gain (m : Catalogue.metric) ~base ~next =
  let d = (next -. base) /. Float.abs base in
  match m.Catalogue.better with Catalogue.Higher -> d | Catalogue.Lower -> -.d

let judge (m : Catalogue.metric) ~bound olds news =
  let _, mo, _ = Stats.quartiles olds and _, mn, _ = Stats.quartiles news in
  let g = if mo = 0.0 then 0.0 else gain m ~base:mo ~next:mn in
  let beats x y =
    match m.Catalogue.better with Catalogue.Higher -> x > y | Catalogue.Lower -> x < y
  in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> beats n o) olds) news
  in
  match bound with
  | None -> (g, Unbounded)
  | Some bound ->
    if Float.max (Stats.spread olds) (Stats.spread news) > bound then
      (g, if all_better then Better else Unresolved)
    else if g < -.bound then (g, Worse)
    else if g > bound then (g, Better)
    else (g, Same)

let values (records : Record.t list) ~workload ~trace name =
  List.filter_map
    (fun (r : Record.t) ->
      if r.Record.workload = workload && r.Record.trace = trace then
        List.assoc_opt name r.Record.metrics
      else None)
    records

let pp_q xs =
  let q1, m, q3 = Stats.quartiles xs in
  Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3

(* Prints the table; returns true when some bounded metric got worse. *)
let run ~bounds ~(old_runs : Record.t list) ~(new_runs : Record.t list) =
  let worse = ref false in
  Printf.printf "%-12s %-34s %-36s %-36s %9s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "gain" "verdict";
  List.iter
    (fun workload ->
      let runs trace (rs : Record.t list) =
        List.filter (fun (r : Record.t) -> r.Record.workload = workload && r.Record.trace = trace) rs
      in
      List.iter
        (fun (trace, metrics) ->
          let o = runs trace old_runs and n = runs trace new_runs in
          if o <> [] && n <> [] then begin
            let failed rs =
              List.fold_left (fun acc (r : Record.t) -> acc + r.Record.failed) 0 rs
            and attempted rs =
              List.fold_left (fun acc (r : Record.t) -> acc + r.Record.attempted) 0 rs
            in
            Printf.printf "%-12s %-34s %-36s %-36s\n" workload
              (if trace then "(traced) failed/attempted" else "failed/attempted")
              (Printf.sprintf "%d/%d in %d runs" (failed o) (attempted o) (List.length o))
              (Printf.sprintf "%d/%d in %d runs" (failed n) (attempted n) (List.length n));
            List.iter
              (fun (m : Catalogue.metric) ->
                let olds = values old_runs ~workload ~trace m.Catalogue.name
                and news = values new_runs ~workload ~trace m.Catalogue.name in
                if olds <> [] && news <> [] then begin
                  let bound = if trace then None else List.assoc_opt m.Catalogue.name bounds in
                  let g, v = judge m ~bound olds news in
                  if v = Worse then worse := true;
                  Printf.printf "%-12s %-34s %-36s %-36s %+8.2f%%  %s\n" workload
                    m.Catalogue.name (pp_q olds) (pp_q news) (100.0 *. g)
                    (verdict_name v)
                end)
              metrics
          end)
        [ (false, Catalogue.end_to_end); (true, Catalogue.per_layer) ])
    Catalogue.workloads;
  !worse
