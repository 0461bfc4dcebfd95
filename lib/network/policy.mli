(** Distribution policies (Section 4.1.1).

    A distribution policy for a schema [σ] and network [N] is a total
    function [facts(σ) → P⁺(N)]. A policy is domain-guided when it is
    induced by a domain assignment [α : dom → P⁺(N)] via
    [P(R(a1,...,ak)) = α(a1) ∪ ... ∪ α(ak)]. *)

open Relational

type t

val name : t -> string
val network : t -> Distributed.network
val schema : t -> Schema.t

val in_network : t -> Value.t -> bool
(** Whether a node belongs to the policy's network (O(log |N|)). *)

val assign : t -> Fact.t -> Value.t list
(** The (nonempty, sorted) set of nodes responsible for a fact.
    @raise Invalid_argument if the fact is not over the policy's schema. *)

val responsible : t -> Value.t -> Fact.t -> bool

val is_domain_guided : t -> bool

val domain_assignment : t -> (Value.t -> Value.t list) option
(** The underlying [α] when domain-guided. *)

val dist : t -> Instance.t -> Distributed.t
(** [dist_P(I)]: the distributed instance placing each fact on its
    responsible nodes. Facts outside the schema are ignored. *)

(* -- constructors --------------------------------------------------- *)

val make :
  name:string -> Schema.t -> Distributed.network -> (Fact.t -> Value.t list) ->
  t
(** General policy. The assignment is normalized (sorted, deduplicated,
    intersected with the network); an empty assignment raises at use
    time. *)

val domain_guided :
  name:string -> Schema.t -> Distributed.network ->
  (Value.t -> Value.t list) -> t
(** Policy induced by a domain assignment. *)

val hash_fact : Schema.t -> Distributed.network -> t
(** Each fact on one node, by hash. Not domain-guided. *)

val first_attribute : Schema.t -> Distributed.network -> t
(** Each fact on one node, by hash of its first attribute (Example 4.1's
    [P1]). Not domain-guided in general. *)

val hash_value : Schema.t -> Distributed.network -> t
(** Domain-guided: each value assigned to one node by hash. *)

val replicate_all : Schema.t -> Distributed.network -> t
(** Every fact on every node. Domain-guided (α maps every value to N). *)

val single : Schema.t -> Distributed.network -> Value.t -> t
(** Everything on one designated node — the "ideal" distribution used in
    the coordination-freeness proofs. Domain-guided. *)

val override :
  name:string -> on:(Fact.t -> bool) -> to_:(Value.t list) -> t -> t
(** [override ~on ~to_ p]: facts matching [on] go to [to_], others follow
    [p] — the [P2] construction in the proof of Theorem 4.3. Generally not
    domain-guided. *)
