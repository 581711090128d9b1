(* Staged devirtualization (paper §3.1): indirect call sites "are not
   directly amenable to inlining or cloning", but HLO "will
   aggressively clone at sites where the caller passes a pointer to a
   procedure and the callee uses the value of a formal variable in an
   indirect call.  Subsequent constant propagation of this code pointer
   ... will then provide the information needed to turn the indirect
   call into a direct call, which can then be inlined or cloned in a
   later pass."

   This example is that sentence, executed — the eqntott/qsort shape:
   a sort routine taking its comparator through a function pointer.

     dune exec examples/devirtualize.exe *)

module U = Ucode.Types

let source = {|
global data[512];

func cmp_up(a, b) { return a - b; }
func cmp_down(a, b) { return b - a; }

static func swap(i, j) {
  var t = data[i];
  data[i] = data[j];
  data[j] = t;
}

// Classic qsort with a comparison callback: every compare is an
// indirect call through the formal [cmp].
func sort(lo, hi, cmp) {
  if (lo >= hi) { return 0; }
  var pivot = data[(lo + hi) / 2];
  var i = lo;
  var j = hi;
  while (i <= j) {
    while (cmp(data[i], pivot) < 0) { i = i + 1; }
    while (cmp(data[j], pivot) > 0) { j = j - 1; }
    if (i <= j) { swap(i, j); i = i + 1; j = j - 1; }
  }
  sort(lo, j, cmp);
  sort(i, hi, cmp);
  return 0;
}

// The element count lives in memory, so the only constant reaching
// sort's formals is the comparator — one clone per comparator, shared
// by the recursive call sites.
global n_items;

func fill(n) {
  var x = 7;
  for (var i = 0; i < n; i = i + 1) {
    x = (x * 1103515245 + 12345) & 1048575;
    data[i] = x;
  }
  n_items = n;
  return 0;
}

func main() {
  fill(512);
  var hi = n_items - 1;
  sort(0, hi, &cmp_up);
  print_int(data[0]);
  print_int(data[511]);
  sort(0, hi, &cmp_down);
  print_int(data[0]);
  return 0;
}
|}

let count_sites (p : U.program) =
  let cg = Ucode.Callgraph.build p in
  let classes = Ucode.Callgraph.classify cg in
  List.assoc Ucode.Callgraph.Indirect_call classes

(* Routines reachable from main through direct calls. *)
let reachable (p : U.program) =
  let rec go seen name =
    if U.String_set.mem name seen then seen
    else
      match U.find_routine p name with
      | None -> seen
      | Some r ->
        let seen = U.String_set.add name seen in
        List.fold_left
          (fun seen (_, c) ->
            match c.U.c_callee with
            | U.Direct n -> go seen n
            | U.Indirect _ -> seen)
          seen (U.calls_of_routine r)
  in
  go U.String_set.empty p.U.p_main

let hot_indirect_calls (p : U.program) =
  (* Indirect call instructions sitting inside some loop, in routines
     the program can still reach (the dead exported original keeps its
     indirect call but never runs). *)
  let live = reachable p in
  List.fold_left
    (fun acc (r : U.routine) ->
      if not (U.String_set.mem r.U.r_name live) then acc
      else
      let cyc = Hlo.Summary_cache.cycles r in
      acc
      + List.fold_left
          (fun acc (b : U.block) ->
            if U.Int_set.mem b.U.b_id cyc then
              acc
              + List.length
                  (List.filter
                     (function
                       | U.Call { c_callee = U.Indirect _; _ } -> true
                       | _ -> false)
                     b.U.b_instrs)
            else acc)
          0 r.U.r_blocks)
    0 p.U.p_routines

let () =
  let program = Minic.Compile.compile_string source in
  Fmt.pr "static indirect sites before HLO: %d (hot: %d)@."
    (count_sites program) (hot_indirect_calls program);

  let train = Interp.train program in
  (* A generous budget and extra passes let the staged chain run to
     completion: clone (binds the comparator) -> constant propagation
     (indirect call becomes direct) -> inline (the comparator
     disappears into the loop) -> repeat for the recursive sites. *)
  let config =
    { Hlo.Config.default with Hlo.Config.budget_percent = 400.0; pass_limit = 6 }
  in
  let result = Hlo.Driver.run ~config ~profile:train.Interp.profile program in
  let p' = result.Hlo.Driver.program in

  Fmt.pr "HLO: %a@." Hlo.Report.pp result.Hlo.Driver.report;
  Fmt.pr "hot indirect calls after HLO: %d@." (hot_indirect_calls p');
  List.iter
    (fun (r : U.routine) ->
      match r.U.r_origin with
      | U.Clone_of orig ->
        Fmt.pr "  clone %s (of %s), %d params left@." r.U.r_name orig
          (List.length r.U.r_params)
      | U.From_source -> ())
    p'.U.p_routines;

  (* Verify the whole chain kept the program meaning. *)
  let before = Interp.run program in
  let after = Machine.Sim.run_program p' in
  assert (String.equal before.Interp.output after.Machine.Sim.output);
  Fmt.pr "output unchanged: %s@."
    (String.concat " " (String.split_on_char '\n' (String.trim before.Interp.output)));
  let base = Machine.Sim.run_program program in
  Fmt.pr "cycles: %d -> %d (%.2fx)@." base.Machine.Sim.metrics.Machine.Metrics.cycles
    after.Machine.Sim.metrics.Machine.Metrics.cycles
    (float_of_int base.Machine.Sim.metrics.Machine.Metrics.cycles
    /. float_of_int after.Machine.Sim.metrics.Machine.Metrics.cycles)
