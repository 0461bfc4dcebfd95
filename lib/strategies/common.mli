(** Shared plumbing for the evaluation-strategy transducers: relation
    renaming between the input schema and its message/memory copies, and
    accessors into the visible instance [D] of a transition. *)

open Relational

val rename_schema : prefix:string -> Schema.t -> Schema.t
val rename : prefix:string -> Instance.t -> Instance.t

val fold_prefixed :
  prefix:string -> (string -> Fact.t -> 'a -> 'a) -> Instance.t -> 'a -> 'a
(** [fold_prefixed ~prefix g i init] folds [g base f] over the facts [f]
    of [i] whose relation is [prefix ^ base] with [base] non-empty. A
    range read ({!Instance.by_prefix}): it touches only those facts. *)

val unrename : prefix:string -> Instance.t -> Instance.t
(** Keeps only facts whose relation carries the prefix, stripping it.
    Reads only the prefixed relations. *)

val restrict_input : Schema.t -> Instance.t -> Instance.t
(** The node's local input fragment: [D] restricted to the input schema,
    read relation by relation ({!Instance.by_rel}). *)

val my_id : Instance.t -> Value.t option
(** The node's identifier from the [Id] system relation. *)

val my_adom : Instance.t -> Value.Set.t
(** Values of the [MyAdom] system relation. *)

val responsible_fact : Instance.t -> Fact.t -> bool
(** Does [D] exhibit [policy_R(d̄)] for the given input fact? *)

val responsible_value : Schema.t -> Instance.t -> Value.t -> bool
(** Under a domain-guided policy: is this node responsible for the value —
    i.e. is [policy_R(a,...,a)] shown for some input relation [R]?
    (Proof of Theorem 4.4.) *)
