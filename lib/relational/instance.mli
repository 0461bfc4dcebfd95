(** Database instances: finite sets of facts.

    This is the paper's notion of instance (Section 2): a finite set of
    facts over some schema. Instances are immutable; the Datalog engine
    builds its own indexed representation for evaluation. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
(** [|I|], the number of facts. *)

val of_list : Fact.t list -> t
val of_set : Fact.Set.t -> t
val to_list : t -> Fact.t list

val of_strings : string list -> t
(** Each string parsed with {!Fact.of_string}. *)

val add : Fact.t -> t -> t
val remove : Fact.t -> t -> t
val mem : Fact.t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val filter : (Fact.t -> bool) -> t -> t
val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Fact.t -> unit) -> t -> unit
val for_all : (Fact.t -> bool) -> t -> bool
val exists : (Fact.t -> bool) -> t -> bool
val map_values : (Value.t -> Value.t) -> t -> t

val adom : t -> Value.Set.t
(** Active domain: all values occurring in facts of the instance. *)

val restrict : t -> Schema.t -> t
(** [restrict i sigma] is the paper's [I|σ]: the maximal subset of [i] over
    [sigma]. *)

val restrict_rels : t -> string list -> t
(** Facts whose relation name is in the list (arities not checked). *)

val by_rel : t -> string -> Fact.t list
(** All facts with the given relation name, in descending {!Fact.compare}
    order. Facts sort by relation name first, so they form one
    contiguous run of the set: this is a range read in O(log n + k) for
    k facts, not a scan of the instance. *)

val by_prefix : t -> string -> Fact.t list
(** All facts whose relation name starts with the given prefix (the
    empty prefix selects every fact), in descending {!Fact.compare} order.
    The relations sharing a prefix are adjacent in that order, so this
    too is a range read in O(log n + k). *)

val hash : t -> int
(** Structural digest: a fold of a structural fact digest over the facts
    in {!Fact.compare} order, so [equal a b] implies [hash a = hash b].
    Suitable as a memo key (paired with {!equal} on collision); not
    cryptographic. *)

val first_missing : t -> t -> Fact.t option
(** [first_missing a b] is the least fact of [a] absent from [b] — equal
    to the head of [to_list (diff a b)] when the diff is non-empty —
    computed without materializing the difference. *)

val schema : t -> Schema.t
(** Minimal schema the instance is over.
    @raise Invalid_argument if a name occurs with two arities. *)

val over : t -> Schema.t -> bool
(** Is every fact over the given schema? *)

val induced : t -> Value.Set.t -> t
(** [induced i c] = [{ f ∈ i | adom(f) ⊆ c }] — the induced subinstance on
    the value set [c] (Section 3.2). *)

val touching : t -> Value.Set.t -> t
(** [{ f ∈ i | adom(f) ∩ c ≠ ∅ }] — facts sharing a value with [c] (used by
    the Mdisjoint evaluation strategy, Theorem 4.4). *)

val is_domain_distinct_from : t -> t -> bool
(** [is_domain_distinct_from j i]: every fact of [j] contains at least one
    value outside [adom i] (Section 3.1). Vacuously true for empty [j]. *)

val is_domain_disjoint_from : t -> t -> bool
(** [is_domain_disjoint_from j i]: [adom j] and [adom i] are disjoint. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
