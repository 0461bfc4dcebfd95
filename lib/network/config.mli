(** Configurations and transitions of transducer networks
    (Section 4.1.3), including the model variants of Sections 4.1.5 / 4.3:
    the original model (no policy relations), the policy-aware model, and
    the [All]-free and oblivious restrictions. *)

open Relational

type variant = {
  with_policy : bool;
      (** expose [MyAdom] and the [policy_R] relations (Zinn et al.'s
          extension); the original model of Ameloot et al. has neither *)
  with_all : bool;   (** expose [All]; also widens [A] from [{x}] to [N] *)
  with_id : bool;    (** expose [Id]; oblivious transducers lack it too *)
}

(** [Id] and [All], no policy relations: the model of Ameloot et al. *)
val original : variant

(** Everything visible: Zinn et al.'s policy-aware model. *)
val policy_aware : variant

(** No [All] (Section 4.3). *)
val all_free : variant

(** Neither [Id] nor [All] nor policy relations (Corollary 4.6). *)
val oblivious : variant

type t = {
  state : Instance.t Value.Map.t;    (** per node: facts over Υout ∪ Υmem *)
  buffer : Multiset.t Value.Map.t;   (** per node: undelivered messages *)
}

val start : Distributed.network -> t

val state_of : t -> Value.t -> Instance.t
val buffer_of : t -> Value.t -> Multiset.t

val outputs : Transducer_schema.t -> t -> Instance.t
(** Union over all nodes of the facts over [Υout]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Structural, on states and buffers. {!Explore} does not use them: it
    compares configurations as arrays of interned ids and builds a [t]
    only for a certificate. *)

val restart : t -> node:Value.t -> injected:Fact.t list -> t
(** A crash and restart of [node]: its state is wiped and each fact of
    [injected] (the redeliveries its {!Fault} plan logged) joins its
    buffer once. {!Run} applies it when a crash is due and
    {!Provenance.replay} on a [restart] event. *)

val duplicate : t -> node:Value.t -> sent:Fact.t list -> copies:int -> t
(** Duplication of [node]'s sends: every other node's buffer gains
    [copies - 1] further copies of each fact of [sent], so each send is
    enqueued [copies] times in all. The identity when [copies <= 1] or
    [sent] is empty. {!Run} applies it after a transition and
    {!Provenance.replay} on an event with [dup > 1]. *)

type stats = {
  messages_sent : int;      (** copies enqueued (fact × recipients) *)
  delivered : int;          (** message copies consumed *)
  sent_facts : Instance.t;  (** the message facts produced by [Q_snd] *)
  output_delta : Instance.t;  (** output facts new in this transition *)
}

val system_facts :
  variant -> Policy.t -> Distributed.network -> Value.t -> Value.Set.t ->
  Instance.t
(** The set [S] of system facts shown to node [x] given the value set [A]
    (already including whatever the variant prescribes), built anew on
    every call: one {!Policy.responsible} call per candidate fact over
    [A].
    {!react} takes the same facts from its context's table instead. The
    reference transition of the tests calls this. *)

type ctx
(** What every transition of one run shares: the variant, the policy,
    the transducer, the input distributed once by [Policy.dist], the
    [All] facts, and a table of the policy-aware system facts keyed on
    (node, [A]), filled as transitions meet new keys. The table is the
    one mutable part and has no lock: a context serves one domain, and
    every run, check and replay prepares its own. *)

val prepare :
  variant:variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  ctx
(** Computes [dist_P(I)] over the transducer's input schema.
    @raise Invalid_argument if the policy assigns an input fact to no
    node of its network. *)

val react :
  ctx -> node:Value.t -> Instance.t -> Fact.Set.t -> Instance.t * Instance.t
(** [react ctx ~node state delivered] is the node's reaction to the
    delivered facts: the system facts and the four transducer queries
    over its visible instance [D] (local input, [state], [delivered] and
    the system facts), giving its next state and [Q_snd], the message
    facts it sends. [D] is built once and the same physical instance is
    passed to [Q_out], [Q_ins], [Q_del] and [Q_snd], in that order, so a
    strategy can derive what its queries share once per [D]. Only the support of a delivery matters, so
    [delivered] is a set. The transducer's components are queries, so
    for a fixed [ctx] this is a pure function of (node, state,
    delivered): the system-facts table changes only how [S] is found.
    Under [with_policy] it builds [S] once per (node, [A]) and then looks
    it up; without, [S] is [Id] and the prepared [All] facts. It touches
    no buffer, builds no {!stats}, records no [net.*] counter and does
    not check that the node is in the network. It is the only reaction
    path: {!step} and {!Explore}, which memoises it on interned ids,
    both call it. *)

val step : ctx -> t -> node:Value.t -> deliver:Multiset.t -> t * stats
(** One transition of the given node consuming the given submultiset of
    its buffer (the paper's [(ρ1, x, m, ρ2)]), on a configuration over
    the policy's network (as {!start} builds it): {!react} on the
    node's state and the support of [deliver], then the bookkeeping.
    Besides the reaction, a transition that sends nothing updates one
    state and one buffer (O(log |N|)); one that sends adds [Q_snd] to
    every other buffer (O(|N|)). Records the [net.*] transition
    counters.
    @raise Invalid_argument if [deliver] is not a submultiset of the
    node's buffer or the node is not in the network. *)

val transition :
  variant:variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  t -> node:Value.t -> deliver:Multiset.t ->
  t * stats
(** [step (prepare ~variant ~policy ~transducer ~input)]: a single
    transition. Runs prepare once and call {!step}. *)

val heartbeat :
  variant:variant -> policy:Policy.t -> transducer:Transducer.t ->
  input:Instance.t -> t -> node:Value.t -> t * stats
(** [transition] with [deliver = ∅]. *)
