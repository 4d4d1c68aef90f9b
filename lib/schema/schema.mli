(** Schemas τ for function signatures and element content models (§2,
    Fig. 2 of the paper).

    A schema associates
    - with each function name, a pair of regular expressions describing
      its input and output types, and
    - with each element name, a regular expression describing the labels
      of its children.

    Regular expressions range over element names, function names and the
    keyword [data] (a data-value leaf). Names not defined by the schema
    are {e unconstrained}: they may contain anything. This keeps the
    type-based pruning {e safe} — with an incomplete schema, relevance
    analysis degrades gracefully to "anything is possible" instead of
    wrongly pruning calls.

    Concrete syntax (one definition per line, [#] starts a comment):
    {v
    functions:
      gethotels        = [in: data, out: hotel*]
      getrating        = [in: data, out: data]
      getnearbyrestos  = [in: data, out: restaurant*]
    elements:
      guide      = hotel*.gethotels?
      hotel      = name.address.rating.nearby
      rating     = (data | getrating)
      name       = data
    v} *)

type signature = { input : Axml_automata.Regex.t; output : Axml_automata.Regex.t }

type t

val add_function : t -> string -> signature -> t
(** Replaces any previous definition of the same name. *)

val add_element : t -> string -> Axml_automata.Regex.t -> t

val find_function : t -> string -> signature option
val find_element : t -> string -> Axml_automata.Regex.t option
val function_names : t -> string list
(** In definition order. *)

val element_names : t -> string list

val data_keyword : string
(** ["data"] — the reserved symbol for data-value leaves. *)

val is_function_symbol : t -> string -> bool
val is_element_symbol : t -> string -> bool

val all_symbols : t -> string list
(** Every symbol defined by or mentioned in the schema (functions,
    elements, [data], and referenced-but-undefined names). *)

exception Parse_error of { line : int; message : string }

val of_string : string -> t
(** Parses the concrete syntax above; raises {!Parse_error}. *)

val of_file : string -> t
val to_string : t -> string
(** Re-parsable rendering. *)

val pp : Format.formatter -> t -> unit

val check : t -> string list
(** Diagnostics: names referenced in content models or output types but
    defined neither as elements nor as functions (they will be treated as
    unconstrained). Returns a human-readable warning per name. *)
