(** XML serialization.

    Round-trips with {!Parse}: [Parse.tree (Print.to_string t)] is
    structurally equal to [t] (whitespace-only text leaves excepted, which
    the parser drops between elements). *)

val to_string : ?indent:int -> Tree.t -> string
(** [to_string ?indent t] serializes [t]. With [indent] (a positive step,
    e.g. 2), elements whose children are all elements are pretty-printed
    over several lines; mixed content stays on one line so that text is
    preserved exactly. Without [indent] (default) output is compact. *)

val forest_to_string : ?indent:int -> Tree.forest -> string

val byte_size : Tree.t -> int
(** [byte_size t] is the length of the compact serialization — the unit
    used by the service cost model for data-transfer accounting. *)

val forest_byte_size : Tree.forest -> int
