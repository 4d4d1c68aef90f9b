(** Type-based pruning of relevance queries (§5, with the lenient variant
    of §6.1).

    Wraps a satisfiability checker ({!Axml_schema.Sat}) over the original
    query's subtrees and rewrites relevance queries so that star function
    nodes only match the services whose derived output types can satisfy
    the query subtree they stand for. Names unknown to the schema always
    stay eligible (no wrongful pruning), which also gives the paper's
    dynamic enrichment: names brought by new calls become alternatives of
    the subtrees they satisfy. *)

type t

val create : ?mode:Axml_schema.Sat.mode -> Axml_schema.Schema.t -> Axml_query.Pattern.t -> t
(** [create schema q] precomputes satisfiability for every subtree of
    [q] (default mode [Exact]). *)

val refine : t -> known_functions:string list -> Relevance.t -> Relevance.t option
(** The refined relevance query (§5): star function nodes become concrete
    name lists; OR branches with no eligible service are dropped; [None]
    when the output node itself has none (the refined NFQ can retrieve
    nothing). *)
