(** Content hashing of routine bodies.

    The isom layer and the clone database ([Hlo.Clone_db]) identify a
    routine by *what it computes*, not what it is called.  Two bodies
    that differ only in their name, home module, origin or call-site
    ids hash identically, so a body keeps its hash across `hloc` runs
    even though site ids are assigned in program order.

    Call-site ids are deliberately excluded: they are program-unique
    serial numbers, so including them would make every copy of a body
    — every clone, every relink — hash differently. *)

open Types

type t = string
(** Hex digest. *)

(* The digest is persisted — isom [i_body_hashes] — and keys
   [Hlo.Clone_db], so the bytes fed to MD5 are a file format
   and must not change.  Every field is a little-endian int64, -1 where
   a column is unused:

     params:  count, then each register
     attrs:   varargs 1 | alloca 2 | relaxed fp 4 | no_inline 8 | no_clone 16
     blocks:  count, then per block  label, #instrs, term tag, a, b, c
              (jump 0: target; branch 1: reg, then, else;
               return 2; return value 3: reg)
     rows:    count, then per instruction  opcode, o1, o2, o3, o4
     args:    count, then every call argument register, in row order
     consts:  count, then every [Const] payload, in row order
     names:   count, then each (length, bytes), first-occurrence order

   Rows, by opcode: const 0 (dst, consts index); faddr 1 and gaddr 2
   (dst, names index); unop 3 (dst, neg 0 | not 1, src); binop 4 (dst,
   operator in declaration order from Add 0 to Ge 15, a, b); move 5
   (dst, src); load 6 (dst, addr); store 7 (addr, value); direct call 8
   (dst, names index, args start, #args); indirect call 9 (dst, handle
   register, args start, #args).  A call with no result has dst -1.
   Names are interned by first occurrence, so equal bodies digest alike
   and a renamed callee or global still reaches the digest.

   One walk fills a buffer each for blocks, rows, args, consts and
   names; params, attrs and the counts are written around them at the
   end. *)

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9
  | Eq -> 10 | Ne -> 11 | Lt -> 12 | Le -> 13 | Gt -> 14 | Ge -> 15

let attr_bits (a : attrs) =
  (if a.a_varargs then 1 else 0)
  lor (if a.a_alloca then 2 else 0)
  lor (match a.a_fp_model with Strict -> 0 | Relaxed -> 4)
  lor (if a.a_no_inline then 8 else 0)
  lor (if a.a_no_clone then 16 else 0)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let routine_body_hash (r : routine) : t =
  let blocks = Buffer.create 256 in
  let rows = Buffer.create 1024 in
  let args = Buffer.create 64 in
  let consts = Buffer.create 64 in
  let names = Buffer.create 64 in
  let n_rows = ref 0 and n_args = ref 0 and n_consts = ref 0 in
  let name_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let intern s =
    match Hashtbl.find_opt name_ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length name_ids in
      Hashtbl.add name_ids s i;
      add_int names (String.length s);
      Buffer.add_string names s;
      i
  in
  let row op o1 o2 o3 o4 =
    add_int rows op;
    add_int rows o1;
    add_int rows o2;
    add_int rows o3;
    add_int rows o4;
    incr n_rows
  in
  let instr = function
    | Const (d, k) ->
      Buffer.add_int64_le consts k;
      incr n_consts;
      row 0 d (!n_consts - 1) (-1) (-1)
    | Faddr (d, n) -> row 1 d (intern n) (-1) (-1)
    | Gaddr (d, n) -> row 2 d (intern n) (-1) (-1)
    | Unop (d, op, a) -> row 3 d (match op with Neg -> 0 | Not -> 1) a (-1)
    | Binop (d, op, a, b) -> row 4 d (binop_tag op) a b
    | Move (d, s) -> row 5 d s (-1) (-1)
    | Load (d, a) -> row 6 d a (-1) (-1)
    | Store (a, v) -> row 7 a v (-1) (-1)
    | Call { c_dst; c_callee; c_args; c_site = _ } ->
      let start = !n_args in
      List.iter (fun a -> add_int args a; incr n_args) c_args;
      let dst = Option.value c_dst ~default:(-1) in
      let op, o2 =
        match c_callee with Direct n -> (8, intern n) | Indirect h -> (9, h)
      in
      row op dst o2 start (!n_args - start)
  in
  List.iter
    (fun (b : block) ->
      let first = !n_rows in
      List.iter instr b.b_instrs;
      let kind, ta, tb, tc =
        match b.b_term with
        | Jump l -> (0, l, -1, -1)
        | Branch (c, l1, l2) -> (1, c, l1, l2)
        | Return None -> (2, -1, -1, -1)
        | Return (Some v) -> (3, v, -1, -1)
      in
      List.iter (add_int blocks) [ b.b_id; !n_rows - first; kind; ta; tb; tc ])
    r.r_blocks;
  let out =
    Buffer.create
      (64 + Buffer.length blocks + Buffer.length rows + Buffer.length args
     + Buffer.length consts + Buffer.length names)
  in
  add_int out (List.length r.r_params);
  List.iter (add_int out) r.r_params;
  add_int out (attr_bits r.r_attrs);
  add_int out (List.length r.r_blocks);
  Buffer.add_buffer out blocks;
  add_int out !n_rows;
  Buffer.add_buffer out rows;
  add_int out !n_args;
  Buffer.add_buffer out args;
  add_int out !n_consts;
  Buffer.add_buffer out consts;
  add_int out (Hashtbl.length name_ids);
  Buffer.add_buffer out names;
  Digest.to_hex (Digest.string (Buffer.contents out))

(** Digest of arbitrary bytes in the same hex format as routine
    hashes; used for source-content and export-environment hashes in
    the isom layer. *)
let string_hash (s : string) : t = Digest.to_hex (Digest.string s)

let pp = Fmt.string
