(** Empirical coordination detection.

    A traced run shows {e empirical coordination} when some output
    fact's causal cone contains a "heard-from-all-nodes" cut: the
    derivation causally depends on a transition of every network node,
    so no node could have been silently removed without affecting the
    output — the run-level signature of the global barriers that
    coordination-free computations avoid. A query is observed
    coordination-free when {e some} correct, quiescent run has no such
    output fact (matching the existential quantification over
    policies/runs in the paper's Definition 3); see
    {!Calm_core.Empirical} for the query-level cross-check against
    static claims. *)

open Relational

type fact_report = {
  fact : Fact.t;
  anchor_index : int;
  anchor_node : Value.t;
  cone_events : int;      (** size of the fact's causal cone *)
  cone_nodes : Value.t list;  (** nodes the derivation heard from *)
  heard_from_all : bool;
}

type report = {
  network : Distributed.network;
  facts : fact_report list;  (** one per distinct output fact, in anchor
                                 order *)
  coordinated : bool;
      (** some output fact heard from every node (false for runs with no
          output) *)
}

val analyze : network:Distributed.network -> Trace.event list -> report
