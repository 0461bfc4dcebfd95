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

val restrict_input : Schema.t -> Instance.t -> Instance.t
(** The node's local input fragment: [D] restricted to the input schema,
    read relation by relation ({!Instance.by_rel}). *)

val unrename_input :
  prefix:string -> Schema.t -> Instance.t -> Instance.t -> Instance.t
(** [unrename_input ~prefix input d acc] adds to [acc] the facts [R(ā)]
    for which [d] holds [(prefix ^ R)(ā)], [R/k] an input relation and
    [ā] of length [k]: one range read of [prefix ^ R] per input relation,
    the prefix stripped. *)

val missing_copies :
  prefix:string -> Instance.t -> Instance.t -> Instance.t -> Instance.t
(** [missing_copies ~prefix facts d acc] adds to [acc] the [prefix]ed
    copy of each fact of [facts] that [d] does not hold: what an
    inflationary memory update [mem ∪ ins] would add, and nothing it
    would drop again. *)

(** {1 One derivation per transition}

    [Config.react] hands one physical [D] to all four queries of a
    transition. A strategy derives the sets its queries share once per
    [D] through a slot of its own module: one per domain, holding the
    last derivation and keyed on the physical [(input schema, D)] pair,
    so a pool domain never sees another's and an older [D] is
    re-derived, never misread. *)

type 'a slot

val slot : unit -> 'a slot
(** A fresh domain-local slot, created once per strategy module. *)

val once :
  'a slot -> (Schema.t -> Instance.t -> 'a) -> Schema.t -> Instance.t -> 'a
(** [once slot derive input d] is [derive input d], computed at most once
    in a row for the same physical [input] and [d] on this domain. The
    derivation must depend on the contents of [input] and [d] alone. *)

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
