(** Active XML documents (§2 of the paper).

    An AXML document is an ordered labeled tree with {e data nodes}
    (elements and data-value leaves) and {e function nodes} (embedded
    calls to Web services). The children of a function node are the call's
    parameters. Invoking a call replaces the function node, in place, by
    the forest the service returned ({!replace_call}).

    Nodes are mutable and carry parent pointers: call invocation splices
    results in O(|result|), and bottom-up query checking / F-guide
    maintenance walk ancestors cheaply. Every node has an identity ([id])
    unique within its document; function nodes additionally carry a
    [call_id] numbering them in creation order (matching the numbered
    calls of Fig. 1). *)

type node = private {
  id : int;
  label : label;
  attrs : (string * string) list;
      (** preserved for XML round-trips; invisible to queries *)
  mutable children : node list;
  mutable parent : node option;
  mutable viewpos : int;  (** internal: slot in the document's current view *)
  mutable viewstamp : int;  (** internal: which view lineage stamped [viewpos] *)
}

and label =
  | Elem of string  (** element data node *)
  | Data of string  (** data-value leaf *)
  | Call of call  (** function node *)

and call = { fname : string; call_id : int }

type t
(** A document: a root node plus id generators, a generation counter
    bumped by every structural mutation, and the cached snapshot view. *)

type doc = t
(** Alias for use inside {!View}'s signature. *)

(** {2 Construction} *)

val create : unit -> t
(** An empty document whose root is an [Elem "root"] placeholder; use
    {!set_root} or the node builders below. *)

val elem : t -> ?attrs:(string * string) list -> string -> node list -> node
(** [elem d name children] allocates an element node in [d]. Children must
    belong to [d] and be parentless (raise [Invalid_argument]). *)

val data : t -> string -> node
val call : t -> string -> node list -> node

val set_root : t -> node -> unit
val root : t -> node

(** {2 The [axml:call] XML syntax} *)

val call_elem_name : string
(** ["axml:call"] — the element name encoding function nodes in plain
    XML. The service name is its ["name"] attribute. *)

val of_xml : Axml_xml.Tree.t -> t
(** Imports a plain XML tree; [<axml:call name="f">…</axml:call>]
    elements become function nodes. Raises [Invalid_argument] if such an
    element lacks a [name] attribute. *)

val to_xml : t -> Axml_xml.Tree.t
val node_to_xml : node -> Axml_xml.Tree.t
val forest_of_xml : t -> Axml_xml.Tree.forest -> node list
(** [forest_of_xml d f] imports trees as parentless nodes of [d] (for
    splicing service results). *)

val parse : string -> t
(** [parse s] = [of_xml (Axml_xml.Parse.tree s)]. *)

val to_string : ?indent:int -> t -> string

(** {2 Mutation} *)

val replace_call : t -> node -> Axml_xml.Tree.forest -> node list
(** [replace_call d fnode result] implements the rewriting step
    [d →v d'] (Def. 2): [fnode] (which must be a function node of [d]
    with a parent and among that parent's children; raise
    [Invalid_argument] otherwise, {e before} importing anything — a
    failed replace leaves the document untouched) is removed and the
    imported [result] forest is spliced at its position. The empty
    forest is a plain deletion: [fnode] ends up fully detached
    ([parent = None], absent from its former parent's children). If the
    document's snapshot view is current, it is patched in place: only
    the spliced region is re-indexed. Returns the spliced-in nodes. *)

val append_child : t -> node -> node -> unit
(** [append_child d parent child] attaches a parentless node. *)

val remove_node : t -> node -> unit
(** Detaches a non-root node from its parent. *)

(** {2 Traversal and access} *)

val iter : (node -> unit) -> t -> unit
(** Document-order traversal of the whole tree (parameters of calls
    included). *)

val iter_node : (node -> unit) -> node -> unit
(** Like {!iter} but over one subtree. *)

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

val function_nodes : t -> node list
(** All live function nodes, in document order — including those nested
    inside call parameters. *)

val visible_function_nodes : t -> node list
(** Function nodes all of whose proper ancestors are data nodes — the
    only ones an NFQ can retrieve (queries match data nodes only, so a
    call buried in another call's parameters is invisible until its host
    is invoked). *)

val ancestors : node -> node list
(** From the parent up to the root (nearest first). *)

val label_path : node -> string list
(** Labels of element ancestors from the root down to (and excluding) the
    node itself — the node's dataguide path. *)

val size : t -> int
val count_calls : t -> int
val is_data : node -> bool
val is_call : node -> bool
val call_name : node -> string option

val data_children : node -> node list
(** Children that are data nodes (elements or values). *)

val text_value : node -> string option
(** [text_value n] is [Some v] when [n] is a [Data v] leaf. *)

val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> t -> unit

(** {2 Generation tracking} *)

val uid : t -> int
(** Process-unique document identity (for caches keyed by document). *)

val generation : t -> int
(** Bumped by every structural mutation ([set_root], [append_child],
    [remove_node], [replace_call]). A view or cache tagged with an older
    generation is stale. *)

val view_indexed_total : t -> int
(** Cumulative number of nodes (re)indexed into snapshot views of this
    document — full builds plus incremental splice patches. The engine
    differences this across a run to report [view_rebuild_nodes]. *)

(** {2 Snapshot views}

    An index of one subtree in document (pre)order: position → node and
    subtree size, with labels, attributes and parents read through the
    node. Every read-only pass (matching, relevance, F-guide
    construction, projection context walks) can run against a view
    without walking the mutable tree, which makes fan-out over subtrees
    safe across domains.

    A document's view is patched {e in place} by {!replace_call}, so a
    view is valid until the next structural mutation of its document;
    {!View.generation} tells which document state it shows. *)

module View : sig
  type t

  val snapshot : doc -> t
  (** The document's current view, built in one O(n) pass and cached on
      the document. [replace_call] patches the cached view in place — the
      same object, its generation advanced — re-indexing only the
      spliced region; every other mutation drops the cache. Cheap
      whenever the generation is unchanged. *)

  val of_node : node -> t
  (** Ad-hoc view of one subtree (positions relative to [node] at index
      0). Never cached and never disturbs the owning document's stamps;
      [index_of] works through a private id table. *)

  val size : t -> int

  val generation : t -> int
  (** The document generation the view shows; advanced by every splice
      that patches it. [-1] for {!of_node} views. *)

  val doc_uid : t -> int

  val root : t -> int
  (** Always [0]. *)

  val node : t -> int -> node
  val label : t -> int -> label
  val attrs : t -> int -> (string * string) list

  val parent : t -> int -> int
  (** The position of the node's parent: [-1] at the view root.
      O(1) through the node's parent pointer. *)

  val subtree_end : t -> int -> int
  (** Exclusive end of the subtree rooted at the index: the subtree of
      [i] is exactly the index interval [[i, subtree_end t i)]. *)

  val children : t -> int -> int list
  (** Child indices in document order (an O(#children) skip-walk). *)

  val is_data : t -> int -> bool
  val is_call : t -> int -> bool

  val index_of : t -> node -> int option
  (** Position of a node in this view, or [None] when the node is not
      covered (e.g. it was spliced out, or the view predates it). *)

  val top_subtrees : t -> int list
  (** The root's child indices — the natural units of intra-document
      parallelism. *)

  val partition : t -> jobs:int -> int list -> int list list
  (** Contiguous, subtree-size-weighted partition of an index list into
      at most [jobs] chunks; deterministic, order-preserving. *)

  val visible_calls : t -> node list
  (** Function nodes not nested inside other calls' parameters, in
      document order (the view-side [visible_function_nodes]). *)

  val subtree_to_xml : t -> int -> Axml_xml.Tree.t
  val materialize : t -> Axml_xml.Tree.t
  (** Serializes the view itself (never the mutable tree) — the
      round-trip anchor: [materialize (snapshot d) = to_xml d]. *)
end
