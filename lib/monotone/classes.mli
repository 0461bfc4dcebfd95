(** The monotonicity classes of Section 3.1.

    A query [Q] is monotone when [Q(I) ⊆ Q(I ∪ J)] for all [J];
    domain-distinct-monotone when this holds for all [J] whose facts each
    contain a value outside [adom I]; domain-disjoint-monotone when it
    holds for all [J] with [adom J ∩ adom I = ∅]. The bounded variants
    [Mᵢ] restrict [|J| ≤ i]. *)

open Relational

type kind =
  | Plain     (** M *)
  | Distinct  (** Mdistinct *)
  | Disjoint  (** Mdisjoint *)

val kind_to_string : kind -> string

val weaker : kind -> kind -> bool
(** [weaker a b]: the condition of [a] is implied by membership in [b]
    (e.g. [weaker Disjoint Plain]: every monotone query is
    domain-disjoint-monotone). Reflexive. *)

val admissible : kind -> base:Instance.t -> extension:Instance.t -> bool
(** Is the extension one of the [J] quantified over for this kind? *)

type violation = {
  kind : kind;
  bound : int option;
  base : Instance.t;
  extension : Instance.t;
  missing : Fact.t;  (** in [Q(base)] but not in [Q(base ∪ extension)] *)
}

val pp_violation : Format.formatter -> violation -> unit

val stage :
  before:Instance.t -> kind -> Query.t -> base:Instance.t ->
  Query.delta -> violation option
(** Staged probing of one base's extensions against a precomputed
    [before = Q(base)] — the checker's cross-probe cache computes
    [Q(base)] once per base, stages the query's membership probe
    ({!Relational.Query.stage}), and tests every admissible extension
    through the returned function.
    Extensions arrive as {!Relational.Query.delta}s; their instance view
    is forced only when a violation is reported. Admissibility is the
    caller's obligation. The [missing] fact is the least element of
    [diff before (Q(base ∪ extension))], so certificates are independent
    of whether [before] was cached or answered incrementally. *)

val check_pair :
  kind -> Query.t -> base:Instance.t -> extension:Instance.t ->
  violation option
(** Tests [Q(base) ⊆ Q(base ∪ extension)] when the extension is admissible
    for the kind; inadmissible pairs vacuously return [None]. *)
