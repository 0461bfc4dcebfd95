(** The Mdistinct-strategy (proof of Theorem 4.3).

    Nodes broadcast their local input facts {e and} certified non-facts:
    a node responsible for a candidate fact (its [policy_R] row is shown)
    that is absent from its local fragment knows the fact is globally
    absent, and broadcasts the absence. A node outputs [Q] on its
    collected facts once its [MyAdom] is {e complete}: for every candidate
    fact over [MyAdom] it either holds the fact or an absence certificate.
    The collected set is then the induced subinstance of the input on
    [MyAdom], so domain-distinct-monotonicity makes every produced fact
    correct. Requires the policy-aware model (the [policy_R] relations). *)

open Relational

val fact_msg_prefix : string     (* "Msg_" *)
val absence_msg_prefix : string  (* "AbsMsg_" *)
val fact_mem_prefix : string     (* "Got_" *)
val absence_mem_prefix : string  (* "Abs_" *)

val certified_absences : Schema.t -> Instance.t -> Instance.t
(** Candidate input facts over [MyAdom] that this node is responsible for
    but does not hold locally — certified globally absent. They are read
    off the [policy_R] rows of [D]: a row of [R]'s arity whose values
    all lie in [MyAdom] certifies [R(ā)] unless [D] holds it. The system
    facts show exactly those rows, so this costs a range read of each
    [policy_R], not an enumeration of [MyAdom]^k. *)

val complete : Schema.t -> Instance.t -> bool
(** Is [MyAdom] complete at this node (every candidate fact over it either
    known present or known absent)? Decided by counting: the known and
    absent facts are over the input schema, so [MyAdom] is complete iff
    those whose values all lie in [MyAdom] number Σ|MyAdom|^k over the
    input relations [R/k]. *)

val transducer : Query.t -> Network.Transducer.t
