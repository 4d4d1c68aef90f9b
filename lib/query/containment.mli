(** Tree-pattern containment, in the style the paper's §4.1 refers to for
    eliminating redundant relevance queries.

    [q ⊆ q'] means every embedding answer of [q] is one of [q'] on every
    document. The implemented test is the classical {e pattern
    homomorphism}: a mapping from [q'] to [q] preserving the root, labels
    (wildcards and variables match anything), child edges, and mapping
    descendant edges to strictly-descending paths. A homomorphism
    [q' → q] implies [q ⊆ q'].

    The test is {b sound but not complete}: containment of patterns with
    [//] and [*] is coNP-hard in general, and some containments hold
    without a homomorphism witness. That is exactly what redundancy
    elimination needs — dropping a query is only done when containment is
    {e certain}. Result markers are ignored (containment of the boolean
    patterns). *)

val contained : Pattern.t -> Pattern.t -> bool
(** [contained q q'] — sound test for [q ⊆ q'] (a homomorphism
    [q' → q]). *)

val equivalent : Pattern.t -> Pattern.t -> bool
(** Containment both ways. *)

val drop_contained : Pattern.t list -> Pattern.t list
(** Removes every query that is contained in another of the list (keeping
    the first of an equivalent group): the surviving queries retrieve the
    same union of answers. *)
