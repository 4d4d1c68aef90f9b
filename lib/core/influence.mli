(** The may-influence relation between relevance queries, its layers, and
    the independence condition (§4.2–§4.4).

    [q_v] may influence [q_v'] iff invoking a call retrieved by [q_v] can
    put new calls where [q_v'] looks — by Prop. 3, iff some word of the
    path language of [q_v^lin] is a prefix of some word of [q_v'^lin].
    Both tests are decided on Glushkov automata over a common symbolic
    alphabet. *)

val may_influence : Relevance.t -> Relevance.t -> bool
(** Prop. 3: non-emptiness of [L(lin_v) ∩ prefixes(L(lin_v'))]. *)

val disjoint_lin : Relevance.t -> Relevance.t -> bool
(** [L(lin_v) ∩ L(lin_v') = ∅] — the building block of condition ★. *)

val independent_in_layer : Relevance.t -> Relevance.t list -> bool
(** Condition ★ (§4.4): the query's path language is disjoint from every
    {e other} member's. All the calls an independent query retrieves can
    be invoked in parallel. *)

val layers : Relevance.t list -> Relevance.t list list
(** Strongly connected components of may-influence, in a topological
    order compatible with the ≼ partial order (§4.3): a layer never
    influences an earlier one. The result is a partition of the input.
    Built on the shared automata of {!plan}. *)

val plan : layering:bool -> Relevance.t list -> (Relevance.t * bool) list list
(** The sequencing half of a query plan: the {!layers} of the queries
    with [layering] (a single layer of all of them without), each query
    paired with its ★ flag within its layer ({!independent_in_layer}).
    Every query's automaton is built once, over one alphabet shared by
    all, so this costs n Glushkov constructions rather than one per
    pair; the result equals the pairwise definitions'. *)
