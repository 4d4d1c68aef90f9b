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
    used by the service cost model for data-transfer accounting. It is
    computed from the size rules below, not by printing:
    [byte_size t = String.length (to_string t)]. *)

val forest_byte_size : Tree.forest -> int

(** {2 Size rules}

    The lengths of the pieces of the compact serialization, shared by
    every walker that counts bytes without printing ({!byte_size} here,
    [Axml_doc.byte_size] over live documents). *)

val text_size : string -> int
(** Escaped length of character data. *)

val attr_size : string -> string -> int
(** [attr_size k v] is the length of [ k="v"], [v] escaped. *)

val attrs_size : (string * string) list -> int

val shell_size : string -> attrs:int -> empty:bool -> int
(** [shell_size name ~attrs ~empty] is the length of an element's tags
    around [attrs] bytes of attributes: [<name…/>] when it has no
    children ([empty]), else [<name…>] plus [</name>]. *)
