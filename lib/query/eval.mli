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
    contain neither result nodes nor variables to pure existence tests.

    With a {!par} handle carrying [jobs > 1], the match at the view root
    fans out over top-level subtrees on domains ({!Exec.map_domains}).
    The reassembly preserves document order before the same
    deduplication and joins, so the bindings are identical — element for
    element — at every jobs level. *)

type binding = {
  results : (int * Axml_doc.node) list;  (** result-node pid → image, sorted by pid *)
  vars : (string * string) list;  (** variable → label of its image, sorted *)
}

type par
(** Shared accounting for intra-document parallel matching: the jobs
    level plus a counter of parallel map dispatches. One [par] value is
    threaded through every context of an evaluation run so the engine
    can report [parallel_match_batches]. *)

val par : jobs:int -> par
val par_jobs : par -> int
val par_batches : par -> int

val par_count : par -> int -> unit
(** [par_count p n] accounts [n] more parallel batches — for callers
    (e.g. the candidate filter) that dispatch their own chunked maps
    outside the evaluator. *)

type context
(** A reusable evaluation context: memo tables keyed by document node
    id, then pattern node. Pattern-node ids are globally unique, so one
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

(** {2 View-level entry points}

    Pure evaluation over an explicit snapshot view — what the
    document-taking functions above delegate to. *)

val eval_view : ?relax_joins:bool -> ?par:par -> Pattern.t -> Axml_doc.View.t -> binding list
val eval_view_in : context -> Pattern.t -> Axml_doc.View.t -> binding list
val matches_of_view :
  ?relax_joins:bool -> ?par:par -> Pattern.t -> Axml_doc.View.t -> target:int -> Axml_doc.node list
val matches_of_view_in : context -> Pattern.t -> Axml_doc.View.t -> target:int -> Axml_doc.node list

val anchored_matches_view :
  ?relax_joins:bool -> Pattern.t -> target:int -> Axml_doc.View.t -> int -> bool
(** [anchored_matches_view q ~target v i] tests whether some embedding of
    [q] maps the result node [target] to position [i] of [v], with the
    same label prefilter and staging as {!anchored_matches}. *)

val match_at : ?relax_joins:bool -> Pattern.node -> Axml_doc.node -> binding list
(** [match_at p n] matches the pattern subtree [p] with its root mapped
    exactly to [n] (used by services evaluating pushed queries, where the
    pattern root is tried against each tree of the result forest). Builds
    an ad-hoc view of [n]'s subtree. *)

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

type embedding = (int * Axml_doc.node) list
(** Total images: pattern pid → document node, for every pattern node on
    the chosen OR branches, sorted by pid. *)

val embeddings : ?relax_joins:bool -> ?limit:int -> Pattern.node -> Axml_doc.node -> embedding list
(** [embeddings p n] enumerates complete homomorphisms of [p] rooted at
    [n] (at most [limit], default 10_000) — used to build witness trees
    for query pushing and by the test oracle. *)

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
