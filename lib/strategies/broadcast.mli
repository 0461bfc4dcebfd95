(** The M-strategy (Corollary 4.6 / the CALM direction of [13]).

    Every node broadcasts its local input facts and accumulates everything
    it receives; the query is evaluated on the accumulated facts at every
    transition, and output grows with every newly received fact. Correct
    for monotone queries: derived facts are never invalidated by more
    data. Works in every model variant, including the oblivious one — it
    uses none of the system relations.

    [Q_ins] returns only the [Got_] copies that [D] does not hold yet:
    the memory is inflationary ([Q_del] is empty) and every memory fact
    of [D] is the node's own, so the next state is the same. *)

open Relational

val msg_prefix : string   (* "Msg_" *)
val mem_prefix : string   (* "Got_" *)

val transducer : Query.t -> Network.Transducer.t

(** What a transition's queries share, derived once per [D]
    ({!Common.once}). *)
type derivation = {
  local : Instance.t;  (** [D]'s local input fragment *)
  delivered : Instance.t;  (** the input facts delivered as [Msg_R] *)
  known : Instance.t;  (** local ∪ stored [Got_R] ∪ delivered *)
}

val derive : Schema.t -> Instance.t -> derivation
(** Shared with {!Broadcast_delta} and {!Absence}, which broadcast facts
    under the same prefixes. *)

val known : Schema.t -> Instance.t -> Instance.t
(** [(derive input d).known]: the input facts a node knows during a
    transition. Exposed for tests. *)

val stored_copies :
  prefix:string -> derivation -> Instance.t -> Instance.t -> Instance.t
(** [stored_copies ~prefix x d acc] adds to [acc] the [prefix]ed copies
    of the local and delivered facts that [d] does not hold: the stored
    part of [Q_ins], [Δ] only. *)
