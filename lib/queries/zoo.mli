(** The paper's query zoo: every query used in a proof or separation,
    as executable {!Relational.Query.t} values, plus the Datalog¬ sources
    for those that the paper writes as programs.

    Membership claims verified by the bench harness (Theorem 3.1):
    - {!tc} ∈ M;
    - {!comp_tc} (the paper's Q_TC) ∈ Mdisjoint \ Mdistinct;
    - {!q_clique}[ k] ∈ Mᵏ⁻²_distinct \ Mᵏ⁻¹_distinct, ∈ Mᵏ⁻²_disjoint;
    - {!q_star}[ k] ∈ Mᵏ⁻¹_disjoint \ Mᵏ_disjoint and ∉ Mᵢ_distinct;
    - {!q_duplicate}[ j] ∈ Mᵢ_distinct (i < j) \ Mʲ_disjoint;
    - {!triangles_unless_two_disjoint} ∈ C \ Mdisjoint;
    - {!winmove} ∈ Mdisjoint \ Mdistinct. *)

open Relational

val graph_schema : Schema.t

(* -- helpers over the undirected view of E ------------------------- *)

val undirected_neighbours : Instance.t -> Value.Set.t Value.Map.t
(** Adjacency of the underlying undirected simple graph of [E] (self-loops
    dropped) — "ignoring the direction of edges" as in Theorem 3.1. *)

val has_clique : Instance.t -> int -> bool
val has_star : Instance.t -> int -> bool
(** A star with [k] spokes: a vertex with at least [k] distinct
    neighbours. *)

val triangles : Instance.t -> Instance.t
(** All facts [O(x,y,z)] with [x,y,z] a directed triangle of distinct
    vertices (all three rotations present as separate facts). *)

(* -- the queries ---------------------------------------------------- *)

val tc : Query.t
(** Transitive closure, output [T/2]. Monotone. *)

val comp_tc : Query.t
(** Q_TC: the complement of the transitive closure over the active domain,
    output [O/2]. *)

val q_clique : int -> Query.t
(** [q_clique k]: the edge relation (as [O/2]) when no [k]-clique exists in
    the undirected view, and the empty relation otherwise. *)

val q_star : int -> Query.t
(** [q_star k]: the edge relation when no star with [k] spokes exists, and
    the empty relation otherwise. *)

val duplicate_schema : int -> Schema.t
(** [{R1/2, ..., Rj/2}]. *)

val q_duplicate : int -> Query.t
(** [q_duplicate j]: relation [R1] (as [O/2]) when the intersection of all
    [j] relations is empty, and the empty set otherwise. *)

val triangles_unless_two_disjoint : Query.t
(** All triangles (as [O/3]) provided no two domain-disjoint triangles
    exist; the separator for Mdisjoint ⊊ C. *)

val winmove : Query.t
(** Input [Move/2]; output [Win/1]: positions won under the well-founded
    semantics of [Win(x) ← Move(x,y), ¬Win(y)]. *)

val winmove_doubled : Query.t
(** Win-move computed by the "doubled program" approach the paper's
    Section 7 alludes to: {!Datalog.Wellfounded.eval_via_doubling} on
    {!winmove_program}, restricted to [Win]. The alternating fixpoint is
    driven by repeated semi-positive evaluation of the {e connected}
    SP-Datalog program [Win(x) ← Move(x,y), ¬Prev_Win(y)], feeding each
    round's result back in as relation [Prev_Win] (underestimates at even
    rounds, overestimates at odd ones). Agrees with {!winmove} on every
    input (experiment E13). *)

(* -- Datalog sources ------------------------------------------------ *)

val tc_program : string
val comp_tc_program : string
(** A semicon-Datalog¬ program computing {!comp_tc} (its last stratum is
    the only unconnected one — the shape Theorem 5.3 covers). *)

val example_51_p1 : string
(** Example 5.1's P1: con-Datalog¬ but not in Mdistinct. *)

val example_51_p2 : string
(** Example 5.1's P2: stratified but not semi-connected. *)

val winmove_program : string
(** The unstratifiable win-move rule (well-founded semantics). *)

val q_clique3_program : string
(** A stratified Datalog¬ program for {!q_clique}[ 3], using the
    all-marker pattern to express "unless a triangle exists" without
    nullary relations: [W(u)] marks {e every} active-domain element as
    soon as some (undirected) triangle exists, and the last stratum
    filters the edges through [¬W]. Note the [W] rule is {e unconnected}
    (the marker variable floats free) and [W] is negated — the program is
    stratified but {e not} semi-connected, as Theorem 5.3 demands of a
    query outside Mdisjoint. *)

val q_star2_program : string
(** Same pattern for {!q_star}[ 2] ("edges unless some vertex has two
    distinct undirected neighbours"). Also not semi-connected. *)
