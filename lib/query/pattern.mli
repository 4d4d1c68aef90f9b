(** Tree-pattern queries (§2 of the paper).

    A query is a labeled tree whose nodes carry variable names, constants
    (element names or data values) or the wildcard [*]; edges are child or
    descendant edges; a distinguished subset of nodes are result nodes.
    Extended queries (used to retrieve relevant calls, §2 "useful
    machinery") additionally contain OR-nodes and function nodes.

    Patterns are immutable. Every node has a unique id ([pid]), assigned
    from a global counter, so nodes of derived queries (NFQs) can be traced
    back to the nodes of the original query. *)

type axis = Child | Descendant

type fun_filter =
  | Any_fun  (** the star-labeled function node [()] *)
  | Named of string list  (** one of the listed service names (refined NFQs, §5) *)

type label =
  | Const of string  (** element name *)
  | Value of string  (** data value *)
  | Var of string
  | Wildcard
  | Or  (** choice between the children subtrees *)
  | Fun of fun_filter

type node = private {
  pid : int;
  label : label;
  axis : axis;  (** edge connecting this node to its parent *)
  children : node list;
  result : bool;
}

type t = { root : node }

(** {2 Builders} *)

val make : ?axis:axis -> ?result:bool -> label -> node list -> node
(** [make label children] allocates a fresh pattern node ([axis] defaults
    to [Child], [result] to [false]). *)

val query : node -> t

val with_children : node -> node list -> node
(** Same pid, new children — used by query rewriting (NFQ construction). *)

val with_result : node -> bool -> node
val with_label : node -> label -> node
val with_axis : node -> axis -> node

(** {2 Access} *)

val find : t -> int -> node option
(** [find q pid] locates a node by id. *)

val nodes : t -> node list
(** All nodes in preorder. *)

val result_nodes : t -> node list
val variables : t -> string list
(** Distinct variable names, in first-occurrence order. *)

val has_function_nodes : t -> bool

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

(** {2 Linear paths (§3.1, §4.2)} *)

val path_to : t -> node -> node list
(** The nodes from the root down to (and including) the given node.
    Raises [Not_found] if the node is not in the query. *)

val linear_part : t -> node -> (axis * label) list
(** [linear_part q v] is [q_v^lin]: the linear path expression from the
    root to [v], {e excluding} [v] itself (as in §4.2). OR nodes on the
    path are skipped (they are transparent). *)

val linear_regex : (axis * label) list -> Axml_automata.Regex.t
(** Path language over node labels: a child step contributes one symbol, a
    descendant step contributes [_* . symbol]; non-constant labels become
    the wildcard. *)

(** {2 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** XPath-like rendering, re-parsable by {!Parser.parse} for OR-free
    patterns. *)

val pp_label : Format.formatter -> label -> unit
