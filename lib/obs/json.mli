(** A minimal JSON value type with a printer and a parser.

    The observability sinks emit JSON (JSONL event logs, Chrome
    [trace_event] files, metrics snapshots) and the [axml trace]
    subcommand reads them back; depending on an external JSON library for
    that would be the only third-party dependency of the whole
    tree, so this small self-contained implementation exists instead.

    Numbers: integers are kept exact ([Int]); floats are printed with
    enough digits to round-trip ([%.17g] trimmed). The parser accepts the
    full JSON grammar except for [\u]-escapes beyond the Basic
    Multilingual Plane (surrogate pairs are passed through verbatim). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** [indent] > 0 pretty-prints with that step; default 0 is compact. *)

val to_buffer : ?indent:int -> Buffer.t -> t -> unit
(** Appends the serialization to [b] — lets hot paths (the wire codec)
    reuse one buffer instead of allocating a string per value. *)

val to_channel : ?indent:int -> out_channel -> t -> unit

val write_file : ?indent:int -> string -> t -> unit
(** Writes the value followed by a newline. *)

val parse : ?max_depth:int -> string -> (t, string) result
(** Parses one JSON value; trailing whitespace is allowed, trailing
    garbage is an error. Error messages carry a byte offset. Arrays and
    objects nested more than [max_depth] deep (default: unlimited) are
    an error, raised before the parser recurses any deeper. *)

val parse_file : string -> (t, string) result

val parse_lines : string -> (t list, string) result
(** Parses JSONL: one value per non-empty line. *)

(** {2 Accessors} — total, for digging through parsed documents. *)

val member : string -> t -> t
(** The named field of an object, [Null] when absent or not an object. *)

val to_list : t -> t list
(** The elements of a [List], [[]] otherwise. *)

val string_value : t -> string option
val int_value : t -> int option

val float_value : t -> float option
(** Accepts both [Int] and [Float]. *)
