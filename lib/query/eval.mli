(** Embedding evaluation: the snapshot semantics of Definition 1.

    An embedding is a tree {e homomorphism} (not necessarily injective)
    from the pattern to the document, mapping the pattern root to the
    document root, preserving child / ancestor-descendant edges, matching
    constants exactly, and binding every occurrence of a variable to data
    nodes with identical labels. Function nodes of extended queries map to
    function nodes of the document; OR nodes are a choice between their
    children. Queries never traverse {e into} a function node (a call's
    parameters are invisible to queries until the call is invoked).

    The evaluator runs as a pure function over a snapshot
    {!Axml_doc.View} (read-only, and valid until the next structural
    mutation of its document) — the document-taking entry points below
    just bind the document's cached view first. It is memoized on
    (document node, pattern node) pairs, and collapses sub-patterns that
    contain neither result nodes nor variables to pure existence tests
    ({!witnesses} runs it existence-only, collapsing every sub-pattern).
    The label test comes before the memo: a pair whose labels cannot
    match (for an OR node: none of its alternatives' labels) is decided
    without it, so a memo entry exists only for a label-compatible pair.

    With a {!par} handle carrying [jobs > 1], the match at the view root
    fans out over top-level subtrees on domains ({!fan_out}).
    The reassembly preserves document order before the same
    deduplication and joins, so the bindings are identical — element for
    element — at every jobs level. *)

type binding = {
  results : (int * Axml_doc.node) list;  (** result-node pid → image, sorted by pid *)
  vars : (string * string) list;  (** variable → label of its image, sorted *)
}

type par
(** Shared state for intra-document parallel matching: the jobs level
    plus a counter of chunks dispatched to the domain pool. One [par]
    value is threaded through every context of an evaluation run so the
    engine can report [parallel_match_batches]. *)

val par : jobs:int -> par
val par_jobs : par -> int
val par_batches : par -> int

val fan_out : par -> weight:('a -> int) -> ('a list -> 'b) -> 'a list -> 'b list option
(** [fan_out p ~weight f xs] is the one match fan-out: it splits [xs]
    into at most [par_jobs p] contiguous chunks of about equal total
    [weight] (a chunk closes once it reaches the mean share), maps [f]
    over them on the domain pool ({!Axml_exec.Exec.map_domains}),
    accounts the chunks in [par_batches p] and returns the results in
    chunk order. With unit weights every chunk but the last holds
    [ceil (length xs / par_jobs p)] elements. It returns [None], running
    nothing, when there would be fewer than two chunks: the caller then
    takes its sequential path. The root match uses subtree sizes as
    weights; the F-guide candidate filter uses unit weights. *)

type context
(** A reusable evaluation context: memo tables keyed by document node
    id, then pattern node, holding entries for label-compatible pairs
    only (a label mismatch is decided without the memo). The tables
    start small and grow. Pattern-node ids are globally unique, so one
    context can be shared across {e different} queries over the same
    document state — the multi-query optimization the paper's §4.1 calls
    essential. An entry depends only on its document node's subtree and
    document ids are never reused, so the memo also survives splices:
    the context records the document and generation it is in sync with,
    {!forget} keeps it in sync across one {!Axml_doc.replace_call}, and
    evaluating against a view of any other document state resets it, so
    stale entries are never served. *)

val context : ?relax_joins:bool -> ?par:par -> unit -> context

val forget : context -> Axml_doc.node -> unit
(** [forget ctx parent] accounts one {!Axml_doc.replace_call} whose
    splice point was [parent]: it drops the entries of [parent] and its
    ancestors — the only nodes whose subtrees changed — and advances the
    generation the context is in sync with by one. Call it once per
    splice, after the splice; any mutation it is not told about makes
    the next evaluation reset the memo instead. A context not yet bound
    to a view is left alone. *)

val eval_in : context -> Pattern.t -> Axml_doc.t -> binding list
val matches_of_in : context -> Pattern.t -> Axml_doc.t -> target:int -> Axml_doc.node list

val eval : ?relax_joins:bool -> ?par:par -> Pattern.t -> Axml_doc.t -> binding list
(** [eval q d] is the snapshot result [q(d)]: the distinct bindings of
    result nodes and variables over all embeddings. With
    [relax_joins:true], occurrences of the same variable need not agree
    (the lenient §6.1 approximation — a superset of the exact result). *)

val matches_of : ?relax_joins:bool -> ?par:par -> Pattern.t -> Axml_doc.t -> target:int -> Axml_doc.node list
(** [matches_of q d ~target] lists the distinct document nodes that the
    result node with pid [target] takes over all embeddings, in document
    order. The node must be marked [result] (raise [Invalid_argument]
    otherwise). This is how NFQs retrieve relevant calls. *)

(** {2 View-level entry point}

    Pure anchored matching over an explicit snapshot view — the form the
    parallel candidate filter runs on domains. *)

val anchored_matches_view :
  ?relax_joins:bool -> Pattern.t -> target:int -> Axml_doc.View.t -> int -> bool
(** [anchored_matches_view q ~target v i] tests whether some embedding of
    [q] maps the result node [target] to position [i] of [v], with the
    same label prefilter and staging as {!anchored_matches}. *)

val anchored_matches : ?relax_joins:bool -> Pattern.t -> target:int -> Axml_doc.t -> Axml_doc.node -> bool
(** [anchored_matches q ~target d n] tests whether some embedding of [q]
    maps the result node [target] to the specific node [n] of [d] — the
    candidate-driven check used after F-guide filtering (§6.2). Matching
    aligns the pattern path with [n]'s ancestor chain rather than
    scanning from the document root, so it is fast when [q] would
    otherwise scan a large document. The alignment first runs on labels
    alone; only when the labels align is an evaluation context
    allocated and the side conditions checked. Any full alignment is a
    label alignment, so this prefilter never changes an answer — it
    only makes rejecting a candidate whose label path cannot match
    cheap. A node no longer covered by the document (e.g. an
    already-invoked call) never matches.

    The check is staged: [anchored_matches q ~target] derives the
    pattern path once and returns the per-candidate check, so keep the
    partial application when testing many candidates. It raises
    [Invalid_argument] then if [target] is not a node of [q] or an OR
    node lies on its path. *)

val witnesses : Pattern.node -> Axml_doc.node -> image:(Pattern.node -> Axml_doc.node -> unit) -> unit
(** [witnesses p n ~image] calls [image q m] once for every pair of a
    concrete pattern node [q] of [p] and a node [m] of [n]'s subtree such
    that some embedding of [p] rooted at [n] maps [q] to [m] (OR nodes
    have no image; an alternative reports its own), variable joins
    ignored. It builds no embedding: it runs the memoized matcher in an
    existence-only context, where every memo entry is empty or the one
    empty binding and no binding carries a result or a variable, then
    walks top-down, marking a child pattern node at every child (or
    descendant) position of its parent's image where it matches, and an
    OR's alternatives at the OR's position. Each (pattern node,
    position) pair, descendant scans included, is visited once, so the
    walk is O(|p| · |subtree|) whatever the number of embeddings. This
    is the witness set of query pushing ({!Axml_services.Witness}). *)

val doc_label : Axml_doc.node -> string option
(** The label string used for variable-consistency comparisons: element
    name or data value; [None] on function nodes. *)

val bindings_to_xml : binding list -> Axml_xml.Tree.forest
(** Serializes answers in the paper's §7 wire format: one [<tuple>] per
    binding, with one child per variable (lower-cased variable name as
    element name, label as content) and the full subtree of every result
    image. *)

val label_matches_exposed : Pattern.label -> Axml_doc.node -> bool
(** Single-node label matching (no children), exposed for test oracles.
    Raises [Invalid_argument] on OR labels. *)
