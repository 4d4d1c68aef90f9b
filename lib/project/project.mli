(** Type-based document projection (Benzaken–Castagna–Colazzo–Nguyễn,
    adapted to Active XML).

    From a query pattern and (optionally) a schema, compile a structural
    projector that drops every subtree the query can never touch. The
    needed-path language is the alternation of the root-to-node path
    regexes of the pattern ({!Axml_query.Pattern.linear_regex} per
    node), turned into a Glushkov NFA over the common alphabet of the
    query and the schema; a document node is kept iff its label path is

    - {b a hit}: a prefix of the pattern accepted at this node (it can
      be the image of a pattern node), or
    - {b under a result image}: the path is accepted by the automaton of
      the result nodes — the whole subtree is the answer serialization,
      so it is kept verbatim, or
    - {b live}: some extension of the path that the schema's content
      models admit below this label reaches acceptance. Liveness is a
      least fixpoint over NFA states × schema symbols; labels the schema
      does not constrain are treated as unconstrained (graceful
      degradation — an absent or partial schema only keeps more).

    The Active XML twist: a service-call function node is kept whenever
    the transitive closure of its declared result type (root symbols of
    the output content model, expanded through returned function
    symbols) intersects the needed set at the call's position — a
    pruned-away subtree must never hide a relevant call. Calls with no
    declared signature are kept whenever their position is not dead;
    kept calls keep their parameter forest verbatim.

    {!compile} determinizes both automata once (subset construction) and
    tabulates acceptance, liveness per symbol and call usefulness per
    state set, so walking a node is a few array lookups and a value of
    type {!t} is immutable. The tables stay small on realistic queries
    (the City query: 20 hit and 13 result-image states), but the
    construction is exponential in the worst case: each [*] step after
    a [//] step doubles the hit automaton ([/a//b/*/*/*/*/c!] has 51
    states). See {!states}.

    Soundness contract: on documents that conform to the schema, the
    query's answers (variable bindings and serialized result subtrees)
    on the projected document equal those on the full document — at
    every intermediate rewriting stage, provided call results are
    re-projected before they are spliced (see {!spliced_forest}). *)

type t

type stats = {
  full_nodes : int;  (** nodes examined (pre-projection) *)
  kept_nodes : int;  (** nodes surviving projection *)
  bytes_saved : int;
      (** exact serialized-XML shrinkage: [byte_size before] minus
          [byte_size after] (dropped subtrees plus the shells of
          elements emptied by the drop), computed without printing
          ({!Axml_xml.Print.byte_size}, {!Axml_doc.byte_size}) *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val compile : ?schema:Axml_schema.Schema.t -> Axml_query.Pattern.t -> t
(** [compile ?schema q] builds the projector for [q], its pattern root
    anchored at the document root, matching {!Axml_query.Eval.eval}.
    Without a schema, liveness degrades to NFA reachability and every
    call is kept: projection is weaker but still sound. *)

val states : t -> int * int
(** The state counts of the two determinized automata: the hit automaton
    and the result-node automaton (1 when the pattern has no result
    node). *)

val tree : t -> Axml_xml.Tree.t -> Axml_xml.Tree.t * stats
(** Pure projection of a serialized tree ([<axml:call>] elements are
    treated as function nodes). The root is never dropped: a dead root
    keeps its empty shell. *)

val doc : t -> Axml_doc.t -> stats
(** In-place projection of a live document: dropped subtrees are
    detached with {!Axml_doc.remove_node}. *)

val spliced_forest :
  t -> parent:Axml_doc.node -> Axml_xml.Tree.forest -> Axml_xml.Tree.forest * stats
(** [spliced_forest t ~parent f] projects a service-result forest
    {e before} it is spliced under [parent] (the invoked call's parent):
    the state context is recomputed along the root-to-[parent] path and
    each tree kept, pruned or dropped — without mutating the document
    post-splice, so the engine's incremental snapshot-view patch stays
    valid. *)

val keeps_call : t -> Axml_doc.t -> fname:string -> parent:Axml_doc.node -> bool
(** Would a call to [fname] spliced under [parent] be kept? (white-box
    hook for tests) *)
