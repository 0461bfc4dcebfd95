(** Causal provenance of output facts.

    The provenance of an output fact in a traced run is its {e causal
    cone}: the anchor event (the first transition that produced the
    fact) together with the anchor's entire causal past under
    happens-before — every delivery and rule firing the derivation could
    have depended on, and nothing else. Vector clocks decide membership
    directly: an event is in the cone iff its vector is pointwise ≤ the
    anchor's.

    The cone is self-contained by construction: it includes each cone
    node's full program-order prefix and the origin send of every
    delivered copy. Replaying just the cone's transitions, in index
    order, through {!Config.transition} therefore reproduces each
    event's sends and output delta exactly — {!validate} checks this
    event by event and then checks that the target fact is actually
    produced. *)

open Relational

type cone = {
  target : Fact.t;
  anchor : Trace.event;   (** first event with [target] in its output
                              delta *)
  events : Trace.event list;
      (** the causal past of the anchor, inclusive, ascending index *)
  nodes : Value.t list;
      (** nodes owning at least one cone event (the anchor vector's
          support), sorted *)
}

val cone_of : Trace.event list -> Fact.t -> cone option
(** [None] when no event of the trace outputs the fact. *)

val heard_from_all : network:Distributed.network -> cone -> bool
(** The "heard-from-all-nodes" cut: every network node owns an event in
    the cone, i.e. the derivation causally depends on a transition of
    every node — the empirical signature of coordination. *)

val coordinated : network:Distributed.network -> Trace.event list -> bool
(** {e Empirical coordination} of a traced run: the {!cone_of} of some
    distinct output fact is {!heard_from_all}, so no node could have
    been silently removed without affecting the output. [false] for a
    run with no output. A query is observed coordination-free when some
    correct, quiescent run is not coordinated (the existential
    quantification over policies and runs of the paper's Definition 3);
    {!Calm_core.Empirical} cross-checks that against the static
    placement. *)

val replay :
  variant:Config.variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  cone -> (Instance.t, string) result
(** Re-run only the cone's transitions from the initial configuration,
    checking each replayed transition's sent facts and output delta
    against the trace. Returns the replayed run's accumulated outputs,
    or a description of the first divergence. *)

val validate :
  variant:Config.variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  cone -> (unit, string) result
(** {!replay}, additionally requiring the target fact among the replayed
    outputs. *)

val pp : Format.formatter -> cone -> unit
(** Human summary: target, anchor, cone size, nodes heard from, and the
    cone's non-trivial events. *)
