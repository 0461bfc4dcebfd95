(** Bounded model checking of transducer networks.

    {!Run} samples fair runs; this module {e exhausts} them on small
    inputs: from the start configuration it explores every reachable
    configuration under a complete set of delivery choices per active node
    (heartbeat, full buffer, and each single buffered fact). Since output
    facts are never retracted (Section 4.1.4), a single configuration
    whose output leaves [Q(I)] refutes "the network computes Q" outright;
    a quiescent configuration (a fixpoint under full delivery at every
    node) with output short of [Q(I)] refutes it too. If neither occurs
    and the state space is exhausted, every fair run — whatever the
    message order — produces exactly [Q(I)].

    This is the operational side of the eventual-consistency /
    confluence decision problems studied by Ameloot and Van den Bussche
    (papers [12,14] in the paper's bibliography). *)

open Relational

type verdict =
  | Consistent of { configs : int }
      (** state space exhausted; all runs compute [Q(input)] *)
  | Wrong_output of { config : Config.t; extra : Fact.t }
      (** some run produces a fact outside [Q(input)] *)
  | Stuck of { config : Config.t; missing : Fact.t }
      (** some run quiesces without having produced all of [Q(input)] *)
  | Out_of_budget of { configs : int }
      (** exploration cut off before exhausting the space *)

val check :
  ?max_configs:int ->
  ?jobs:int ->
  variant:Config.variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  query:Query.t ->
  input:Instance.t ->
  unit -> verdict
(** [max_configs] defaults to 20_000. [jobs] is accepted for existing
    callers and ignored: the round-structured BFS runs on the calling
    domain, because the interning and memo tables its domains would
    share made a parallel expansion slower than a sequential one (on a
    2-vCPU machine the two-fact win-move cell took 7.0 s on two domains
    and 5.8 s on one). Each round expands its
    frontier in order and merges each configuration's successors, after
    a budget check, before expanding the next, so the frontier order
    fixes the verdict, its certificate configuration, the visited count
    and the [explore.*] counters.

    Exploration deduplicates
    configurations after abstracting message buffers to their supports
    (fair senders regenerate copies, and the transducer queries only see
    the support of a delivery), and explores heartbeat, full-buffer, and
    single-fact deliveries — complete for transducers that accumulate
    deliveries in memory, which all of this library's strategies do. The
    space is then finite whenever states grow monotonically over a finite
    fact universe, so exploration terminates. The fair continuation that
    judges [Stuck] runs full-delivery round-robin rounds until one
    changes nothing, at most 200; one still changing after them is
    judged on the outputs it has then.

    Each check interns every distinct node state and buffer support to an
    int, so a configuration is an array of ids, and memoises on those ids
    each node's reaction ({!Config.react}) on (node, state, delivered
    support), each buffer's sends and single-fact consumptions, and each
    state's output restriction. No table outlives the check, and a
    {!Config.t} is built only for a certificate. The reaction memo
    relies on the transducer's components being queries, that is,
    functions of the visible instance [D] alone (see {!Transducer}): a
    component that kept hidden state or read anything besides its
    argument would be replayed from the memo rather than re-run. *)

val verdict_to_string : verdict -> string
