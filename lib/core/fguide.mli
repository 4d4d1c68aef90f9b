(** Function-call guides (§6.2).

    A dataguide-style trie summarizing only the label paths of a document
    that lead to query-visible function calls, each trie node keeping the
    {e extent}: the call nodes sitting at that path. Linear path queries
    yield the same result on the F-guide as on the document, so relevance
    detection can collect candidates here and filter them with the
    anchored NFQ check ({!Relevance.retrieves}).

    Built in one document-order traversal; maintained incrementally as
    calls are invoked ({!update_after_replace}). *)

type t

val build : Axml_doc.t -> t
(** A fresh guide from the document's snapshot view (one pure O(n)
    pass). *)

val memoized : Axml_doc.t -> t * bool
(** [memoized d] returns the cached guide for [d] when one exists for
    the document's current generation ([true] = reused, counted by the
    engine's [fguide.reuse] metric), else builds and caches a fresh one.
    A guide kept current through {!update_after_replace} + {!sync}
    stays reusable across evaluations. Thread-safe; the cache is
    bounded. *)

val sync : t -> Axml_doc.t -> unit
(** Re-tags the guide as reflecting the document's current generation —
    call after incremental maintenance ({!update_after_replace})
    brought it up to date. *)

val candidates :
  t -> (Axml_query.Pattern.axis * Axml_query.Pattern.label) list -> Axml_doc.node list
(** [candidates g steps] — the calls reachable by the linear steps (the
    last step carries the function label; see {!Relevance.guide_steps}),
    deduplicated, in no particular order. *)

val update_after_replace : t -> invoked:Axml_doc.node -> added:Axml_doc.node list -> unit
(** Maintenance after {!Axml_doc.replace_call}: the invoked call leaves
    the guide, the spliced-in nodes are indexed under their paths. *)

val call_count : t -> int
(** Number of calls currently indexed. *)

val paths : t -> string list list
(** The distinct label paths that currently hold calls, in insertion
    order. *)

val to_xml : t -> Axml_xml.Tree.t
(** The guide as an XML tree (§6.2: F-guides "can naturally be
    represented as XML documents"); each trie node carries a [calls]
    attribute with its extent size. *)
