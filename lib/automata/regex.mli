(** Regular expressions over string symbols.

    Used for two distinct languages in the system:
    - schema content models and function signatures (Fig. 2 of the paper),
      parsed from the DTD-like syntax [name.address.rating*], and
    - linear path languages of queries ([//a/b] becomes [_* . a . b]),
      built programmatically, where {!Any} stands for "any label".

    Words are lists of symbols (labels), not characters. *)

type t =
  | Empty  (** the empty language ∅ *)
  | Epsilon  (** the language containing only the empty word *)
  | Sym of string  (** a single symbol *)
  | Any  (** any single symbol (label wildcard) *)
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

val seq : t list -> t
(** [seq rs] concatenates, simplifying units: [seq []] is {!Epsilon}. *)

val alt : t list -> t
(** [alt rs] is the union, simplifying units: [alt []] is {!Empty}. *)

val nullable : t -> bool
(** [nullable r] holds iff the empty word is in the language of [r]. *)

val symbols : t -> string list
(** [symbols r] lists the distinct symbols occurring in [r], in first
    occurrence order. Does not include {!Any}. *)

val occurring_symbols : t -> string list
(** [occurring_symbols r] lists the symbols that occur in at least one word
    of the language (i.e. {!symbols} minus those only reachable through an
    ∅ sub-language). *)

val matches : t -> string list -> bool
(** [matches r w] tests membership via Brzozowski derivatives. Serves as
    the reference semantics against which the NFA construction is
    property-tested. *)

val of_string : string -> t
(** Parses the schema regex syntax: names, [.] for concatenation, [|] for
    alternation, postfix [* + ?], parentheses, [_] for the label wildcard,
    [%empty] for ε and [%none] for ∅. Raises [Failure] on syntax errors. *)

val to_string : t -> string
(** Prints in the syntax accepted by {!of_string}. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural (not language) equality. *)

val enumerate : ?max_len:int -> ?limit:int -> alphabet:string list -> t -> string list list
(** [enumerate ~alphabet r] lists words of [r] over [alphabet] (expanding
    {!Any}) up to [max_len] (default 4), at most [limit] (default 1000)
    words, in length-lexicographic order. Exact but exponential: testing
    and satisfiability witnesses only. *)
