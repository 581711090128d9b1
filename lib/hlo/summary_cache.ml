(** Per-version memo for per-routine analyses.

    Per-routine facts that depend only on the routine's *body* — its
    static size and the set of blocks on CFG cycles — are computed once
    per routine version and reused across passes.

    Routines are immutable records and every transform builds a fresh
    one, so physical identity *is* the version.  Keys are held weakly:
    an entry dies with its routine version, so a long-lived process
    (hlod) keeps no summaries of programs it has finished compiling.
    The memo is domain-safe (one mutex) so concurrent compiles
    (hlo_tune's candidate domains) may share it, and process-global so
    the heuristics can reach it without threading a handle through
    every signature. *)

module U = Ucode.Types

type entry = {
  e_size : int;                (** [Ucode.Size.routine_size] *)
  e_cycles : U.Int_set.t;      (** labels of blocks on a CFG cycle *)
}

type stats = {
  hits : int;
  misses : int;
  entries : int;    (** live bindings: versions still reachable *)
}

let lock = Mutex.create ()
let hits = ref 0
let misses = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(** Labels of blocks on a CFG cycle: members of a multi-block strongly
    connected component, plus self-loops. *)
let cycles_of (r : U.routine) : U.Int_set.t =
  let targets = Hashtbl.create 16 in
  List.iter
    (fun (b : U.block) ->
      Hashtbl.replace targets b.U.b_id (U.term_targets b.U.b_term))
    r.U.r_blocks;
  let succs l = List.filter (Hashtbl.mem targets) (Hashtbl.find targets l) in
  Ucode.Callgraph.tarjan
    ~nodes:(List.map (fun (b : U.block) -> b.U.b_id) r.U.r_blocks)
    ~succs
  |> List.fold_left
       (fun acc comp ->
         match comp with
         | [ l ] when not (List.mem l (succs l)) -> acc
         | _ -> List.fold_left (fun acc l -> U.Int_set.add l acc) acc comp)
       U.Int_set.empty

module Memo = Ephemeron.K1.Make (struct
  type t = U.routine

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : entry Memo.t = Memo.create 1024

let find (r : U.routine) : entry =
  match locked (fun () ->
      let e = Memo.find_opt memo r in
      (match e with Some _ -> incr hits | None -> incr misses);
      e)
  with
  | Some e -> e
  | None ->
    (* Compute outside the lock: Tarjan on a big routine must not
       serialize other domains' lookups.  A racing domain may compute
       the same entry; both results are identical, either insert
       wins. *)
    let e = { e_size = Ucode.Size.routine_size r; e_cycles = cycles_of r } in
    locked (fun () -> Memo.replace memo r e);
    e

let size r = (find r).e_size
let cycles r = (find r).e_cycles

let stats () =
  locked (fun () ->
      { hits = !hits; misses = !misses;
        entries = (Memo.stats_alive memo).Hashtbl.num_bindings })

let reset_stats () = locked (fun () -> hits := 0; misses := 0)

let clear () = locked (fun () -> Memo.reset memo; hits := 0; misses := 0)
