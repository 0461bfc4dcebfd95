(** Coordination-freeness (Definition 3).

    A transducer that computes [Q] is coordination-free when, for every
    network and input, {e some} policy lets {e some} node compute [Q(I)]
    with only heartbeat transitions (no communication). The proofs always
    use the "ideal" policy making one node responsible for everything —
    which is domain-guided, so the same witness serves the domain-guided
    notion. The other half of Definition 3, that every run computes
    [Q(I)], is checked over a finite battery by {!Netquery.check}. *)

open Relational

type witness = {
  node : Value.t;
  policy : Policy.t;
  result : Run.result;
}

val heartbeat_witness :
  variant:Config.variant ->
  transducer:Transducer.t ->
  query:Query.t ->
  input:Instance.t ->
  Distributed.network ->
  witness option
(** Searches the network's nodes with the single-node (ideal, domain-
    guided) policy for one whose heartbeat-only prefix already outputs
    [Q(input)]. *)
