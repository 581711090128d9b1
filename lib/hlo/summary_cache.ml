(** Content-hashed memo store for per-routine analyses.

    The paper's HLO writes per-module *isom* files so cross-module
    summaries need not be recomputed on every compile.  This module is
    that idea upgraded to a memo store: per-routine facts that depend
    only on the routine's *body* — its static size and the set of
    blocks on CFG cycles — are keyed by [Ucode.Hash.routine_body_hash]
    and reused across passes, across clones (a clone's body hashes like
    its original until specialization rewrites it), and, via
    [load]/[save], across `hloc` runs.

    Determinism is by construction: a cached value is byte-identical to
    what recomputation would produce, because the key covers everything
    the computation reads.  The store is domain-safe (one mutex) so
    concurrent compiles (hlo_tune's candidate domains) may share it,
    and process-global so the heuristics can reach it without threading
    a handle through every signature. *)

module U = Ucode.Types

type entry = {
  e_size : int;                (** [Ucode.Size.routine_size] *)
  e_cycles : U.Int_set.t;      (** labels of blocks on a CFG cycle *)
}

type stats = {
  hits : int;
  misses : int;
  entries : int;    (** resident entries, including loaded ones *)
  loaded : int;     (** entries brought in by [load] *)
}

let lock = Mutex.create ()
let table : (Ucode.Hash.t, entry) Hashtbl.t = Hashtbl.create 256
let hits = ref 0
let misses = ref 0
let loaded = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------------------------------------------ *)
(* The memo store.                                                     *)

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

(* Routines are immutable records and every transform builds a fresh
   one, so physical identity *is* the version.  This memo maps a version
   to its entry, so repeated queries against an unchanged body (the
   inliner re-scoring a callee, each pass re-keying it) neither re-hash
   nor re-walk it.  Keys are held weakly: an entry dies with its
   routine version.  A memo hit stands for a table hit, because a
   version is memoized only once its key is in the table and [clear]
   empties both. *)
module Memo = Ephemeron.K1.Make (struct
  type t = U.routine

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : entry Memo.t = Memo.create 1024

let find (r : U.routine) : entry =
  match locked (fun () ->
      let e = Memo.find_opt memo r in
      if Option.is_some e then incr hits;
      e)
  with
  | Some e -> e
  | None ->
    (* Hash and compute outside the lock: Tarjan on a big routine must
       not serialize other domains' lookups.  A racing domain may
       compute the same entry; both results are identical, either
       insert wins. *)
    let key = Ucode.Hash.routine_body_hash r in
    let cached =
      locked (fun () ->
          match Hashtbl.find_opt table key with
          | Some e -> incr hits; Some e
          | None -> incr misses; None)
    in
    let e =
      match cached with
      | Some e -> e
      | None -> { e_size = Ucode.Size.routine_size r; e_cycles = cycles_of r }
    in
    locked (fun () ->
        if Option.is_none cached then Hashtbl.replace table key e;
        Memo.replace memo r e);
    e

let size r = (find r).e_size
let cycles r = (find r).e_cycles

let stats () =
  locked (fun () ->
      { hits = !hits; misses = !misses; entries = Hashtbl.length table;
        loaded = !loaded })

let reset_stats () =
  locked (fun () -> hits := 0; misses := 0; loaded := 0)

let clear () =
  locked (fun () ->
      Hashtbl.reset table; Memo.reset memo; hits := 0; misses := 0;
      loaded := 0)

(* ------------------------------------------------------------------ *)
(* On-disk store.                                                      *)

(* The container (magic, version, checksum, fail-safe load) is the
   shared [Store] discipline; the payload is one line per entry:
     <hash> <size> <ncycles> <label> ... <label>
   Entries are written sorted by hash so the file is a deterministic
   function of the store's contents. *)

let disk_magic = "hloc-summary-cache"
let disk_version = 2

let load path =
  match Store.load ~path ~magic:disk_magic ~version:disk_version with
  | Error msg -> Error msg
  | Ok None -> Ok 0
  | Ok (Some payload) ->
    let n = ref 0 in
    let bad = ref None in
    List.iter
      (fun line ->
        if !bad = None && line <> "" then
          match String.split_on_char ' ' line with
          | hash :: size :: ncycles :: labels when String.length hash = 32 ->
            (match
               ( int_of_string_opt size,
                 int_of_string_opt ncycles,
                 List.filter_map int_of_string_opt labels )
             with
            | Some size, Some nc, labels when List.length labels = nc ->
              let e_cycles =
                List.fold_left
                  (fun s l -> U.Int_set.add l s)
                  U.Int_set.empty labels
              in
              locked (fun () ->
                  if not (Hashtbl.mem table hash) then begin
                    Hashtbl.replace table hash { e_size = size; e_cycles };
                    incr loaded;
                    incr n
                  end)
            | _ -> bad := Some line)
          | _ -> bad := Some line)
      (String.split_on_char '\n' payload);
    (match !bad with
    | Some line -> Error (path ^ ": malformed entry: " ^ line)
    | None -> Ok !n)

let save path =
  let rows =
    locked (fun () -> Hashtbl.fold (fun h e acc -> (h, e) :: acc) table [])
  in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (h, e) ->
      let labels = U.Int_set.elements e.e_cycles in
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d%s\n" h e.e_size (List.length labels)
           (String.concat ""
              (List.map (fun l -> " " ^ string_of_int l) labels))))
    rows;
  Store.save ~path ~magic:disk_magic ~version:disk_version
    (Buffer.contents buf)
