(** Source positions and compiler diagnostics for MiniC. *)

type pos = { file : string; line : int; col : int }

let pp_pos ppf p = Fmt.pf ppf "%s:%d:%d" p.file p.line p.col

type severity = Error | Warning

type t = { d_pos : pos; d_severity : severity; d_message : string }

let error pos fmt =
  Printf.ksprintf (fun m -> { d_pos = pos; d_severity = Error; d_message = m }) fmt

let warning pos fmt =
  Printf.ksprintf
    (fun m -> { d_pos = pos; d_severity = Warning; d_message = m })
    fmt

let is_error d = d.d_severity = Error

let pp ppf d =
  Fmt.pf ppf "%a: %s: %s" pp_pos d.d_pos
    (match d.d_severity with Error -> "error" | Warning -> "warning")
    d.d_message

let to_string d = Fmt.str "%a" pp d

exception Compile_error of t list

let fail_on_errors diags =
  if List.exists is_error diags then raise (Compile_error diags)
