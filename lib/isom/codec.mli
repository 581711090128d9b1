(** Binary encoding primitives for the isom object format.

    Everything is length-prefixed little-endian — no delimiters to
    escape, no ambiguity by concatenation.  Decoding never reads out of
    bounds and never throws anything but {!Corrupt}, which the isom
    reader converts into a fail-safe [Error]. *)

exception Corrupt of string

type reader

val reader : string -> reader

(** All bytes consumed? The isom reader checks this so trailing
    garbage is corruption, not silently ignored. *)
val at_end : reader -> bool

val put_int : Buffer.t -> int -> unit
val get_int : reader -> int

val put_int64 : Buffer.t -> int64 -> unit
val get_int64 : reader -> int64

(** Floats round-trip bitwise (via [Int64.bits_of_float]), so profile
    counts survive exactly. *)
val put_float : Buffer.t -> float -> unit
val get_float : reader -> float

val put_bool : Buffer.t -> bool -> unit
val get_bool : reader -> bool

val put_string : Buffer.t -> string -> unit
val get_string : reader -> string

val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val get_list : reader -> (reader -> 'a) -> 'a list

val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val get_option : reader -> (reader -> 'a) -> 'a option

(** [put_tag]/[get_tag]: one byte for constructor tags. *)
val put_tag : Buffer.t -> int -> unit
val get_tag : reader -> int
