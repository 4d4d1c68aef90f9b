(** Plain (non-active) XML trees.

    This is the substrate data type exchanged with simulated Web services
    and used for serialization. Active XML documents (with live function
    nodes) are defined in [Axml_core.Doc] and convert to/from this type. *)

type t =
  | Element of element
  | Text of string  (** character data leaf *)

and element = { name : string; attrs : (string * string) list; children : t list }

(** A forest is an ordered list of trees; service calls return forests. *)
type forest = t list

val element : ?attrs:(string * string) list -> string -> t list -> t
(** [element name children] builds an element node. *)

val text : string -> t
(** [text s] builds a character-data leaf. *)

val name : t -> string option
(** [name t] is the element name, or [None] for text nodes. *)

val attr : string -> t -> string option
(** [attr key t] looks up attribute [key] on an element node. *)

val children : t -> t list
(** [children t] is the child list of an element, [[]] for text nodes. *)

val text_content : t -> string
(** [text_content t] concatenates all text leaves below [t], in document
    order. *)

val size : t -> int
(** [size t] is the number of nodes (elements and text leaves) in [t]. *)

val depth : t -> int
(** [depth t] is the height of the tree; a leaf has depth 1. *)

val equal : t -> t -> bool
(** Structural equality, sensitive to child order and attribute order. *)

val equal_unordered : t -> t -> bool
(** Structural equality up to reordering of children and attributes
    (useful for comparing query witnesses). *)

val compare : t -> t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** [fold f init t] folds [f] over every node of [t] in document order. *)

val iter : (t -> unit) -> t -> unit

val find_all : (t -> bool) -> t -> t list
(** [find_all p t] lists all nodes of [t] satisfying [p], in document
    order. *)

val pp : Format.formatter -> t -> unit
(** Debug printer (single line). Use {!Print} for proper serialization. *)
