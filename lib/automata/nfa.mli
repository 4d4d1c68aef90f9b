(** ε-free non-deterministic finite automata over a fixed, finite symbol
    alphabet, built from {!Regex} by the Glushkov construction.

    Path-language comparisons in the paper (Prop. 3 and the independence
    condition (★)) reduce to: build two automata over a {e common} alphabet,
    take their product, and test emptiness. The alphabet must be finite, so
    callers instantiate the {!Regex.Any} wildcard over the symbols mentioned
    by both expressions plus one fresh "other" witness symbol — see
    {!common_alphabet}. *)

type t

val of_regex : alphabet:string list -> Regex.t -> t
(** [of_regex ~alphabet r] builds the Glushkov automaton of [r], with
    {!Regex.Any} expanded over [alphabet]. Raises [Invalid_argument] if a
    symbol of [r] is missing from [alphabet]. *)

val common_alphabet : Regex.t list -> string list
(** [common_alphabet rs] is the union of the symbols of [rs] plus the
    fresh witness symbol {!other_symbol}; over this alphabet, emptiness of
    products of the [rs] coincides with emptiness over the unbounded label
    alphabet. *)

val other_symbol : string
(** The reserved witness label standing for "any label not mentioned"
    ([{!other_symbol} = "\u{22A5}"], which cannot appear in parsed XML
    names). *)

val alphabet : t -> string list
val size : t -> int
(** Number of states. *)

val accepts : t -> string list -> bool

val is_empty : t -> bool
(** [is_empty a] holds iff the language of [a] is ∅. *)

val product : t -> t -> t
(** [product a b] recognizes the intersection of the two languages. The
    automata must have equal alphabets (raise [Invalid_argument]
    otherwise). *)

val prefix_closure : t -> t
(** [prefix_closure a] recognizes the set of prefixes of words of [a]
    (states co-reachable from an accepting state become accepting). *)

val intersects : t -> t -> bool
(** [intersects a b] = [not (is_empty (product a b))], decided by a
    search over the product's reachable pairs that stops at the first
    accepting one, without building the product. *)

val some_word : t -> string list option
(** [some_word a] is a shortest accepted word, if any — used to produce
    counterexamples and satisfiability witnesses. *)

val reachable_accepting_states : t -> int
(** Number of accepting states reachable from the start state (exposed for
    white-box tests). *)

(** {2 Low-level view (used by {!Dfa} and tests)} *)

val start : t -> int
val is_accepting : t -> int -> bool

val successors : t -> int -> int -> int list
(** [successors a state symbol_index] — symbol indices follow the order of
    {!alphabet}. *)
