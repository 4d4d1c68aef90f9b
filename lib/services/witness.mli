(** Witness pruning for pushed queries (§7).

    When a query [sub_q_v] is pushed with a call, the provider does not
    ship its whole result; it keeps the contributing nodes — the images
    of the pattern nodes over all embeddings of the pushed pattern into
    the result forest, the nodes on paths crossed by descendant edges,
    and the full subtrees of leaf and result images (so that bound
    values ship whole). Everything else is pruned.

    The images are marked by {!Axml_query.Eval.witnesses}, never by
    enumerating embeddings, so the work is linear in the pattern times
    the forest and nothing is truncated however many embeddings there
    are. Marking ignores variable joins: for a join-free pattern the
    kept set is exactly the union of the embeddings' images, because
    sibling conditions share no variable; with a join it is a superset
    of the exact witnesses and still a sub-forest of the full result, so
    the client's answer over it is unchanged. *)

val prune : Axml_query.Pattern.node -> Axml_xml.Tree.forest -> Axml_xml.Tree.forest
(** [prune p forest] keeps the witnesses of [p] over the embeddings
    whose root maps to one of the forest's tree roots. Trees without any
    embedding are dropped entirely; an empty list means no tree
    contributes. *)
