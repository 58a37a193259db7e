(** Minimal JSON tree, printer and parser.

    Deliberately dependency-free: the observability layer exports JSONL
    traces and must read them back in [analyze] without pulling a JSON
    package into the build. Integers and floats are kept distinct by
    syntax — a [Float] always prints with a ['.'] or an exponent, so
    values round-trip through {!to_string} and {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Non-finite floats print as
    [null]. *)

val parse : string -> (t, string) result

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
