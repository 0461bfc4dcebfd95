(** Int-interned graph fixpoints backing the zoo's witness fast paths.

    Interns one binary relation of an instance into vertices [0..n-1]
    and answers reachability and game questions on flat arrays — the
    allocation-light engine behind the staged
    {!Relational.Query.t.witness} membership probes of {!Zoo.tc},
    {!Zoo.comp_tc}, {!Zoo.winmove} and
    {!Zoo.triangles_unless_two_disjoint}. Each function's result is
    pinned to the corresponding reference evaluator by the equivalence
    test wall. *)

open Relational

type t = { n : int; values : Value.t array; adj : int list array }

val empty : t

val of_rel : string -> Instance.t -> t
(** Graph of the facts [rel(a, b)] (arity-2 facts of [rel] only); the
    vertex set is exactly the values occurring as an endpoint. *)

val extend : t -> string -> Instance.t -> t
(** [extend g rel i]: [g] plus the [rel]-edges of [i]. Existing vertices
    keep their numbers — resolutions made against the base graph stay
    valid — and only [i]'s facts are traversed, which is what makes the
    staged witnesses cheap per probe. *)

val extend_facts : t -> string -> Fact.t list -> t
(** {!extend} from a raw fact list — the shape {!Relational.Query.delta}
    carries, so witness probes need not force the delta's instance
    view. *)

val vertex : t -> Value.t -> int
(** Vertex number of a value, [-1] when it does not occur. *)

val reacher : t -> int -> int -> bool
(** [reacher g a b]: is there a nonempty path from vertex [a] to vertex
    [b]? Computed by per-source DFS memoized across calls, so only the
    queried sources' rows are built. Partially apply to share the
    memo. *)

val wins : t -> bool array
(** Won positions of the move graph under the alternating fixpoint
    (win-move's well-founded semantics); indexed by vertex number. *)
