(** Runs of transducer networks (Section 4.1.3).

    Paper runs are infinite and fair; terminating computations reach
    {e quiescence}: a configuration whose observable evolution is a
    fixpoint. We detect it as two consecutive full-delivery round-robin
    rounds with identical states and buffer supports — from such a point
    the run repeats verbatim forever, so the accumulated output equals
    [out(R)] of every fair continuation.

    Schedulers realize different fair message orders; all of them finish
    with full-delivery round-robin rounds so that runs terminate whenever
    the transducer quiesces. A run is fixed by the network and that fair
    choice of node and delivered submultiset; faults are a separate
    perturbation of the choice, given as an optional {!Fault.plan}. *)

open Relational

type scheduler =
  | Round_robin
      (** each round activates every node once, delivering its whole
          buffer *)
  | Random of { seed : int; steps : int }
      (** [steps] transitions at random nodes delivering random
          submultisets, then round-robin to quiescence *)
  | Stingy of { seed : int; steps : int }
      (** like [Random] but delivers at most one message copy per
          transition — maximal reordering/delay *)
  | Adversarial of { steps : int }
      (** [steps] transitions that greedily maximize causal depth: each
          step delivers the single pending message copy whose send has
          the deepest happens-before chain, so information ping-pongs
          along the longest dependency path the run admits — the
          deterministic adversary that stresses reorder-sensitivity
          hardest. Heartbeats round-robin when nothing is pending; then
          round-robin to quiescence. No RNG: ties break by (node, fact)
          order, so adversarial runs are reproducible without a seed. *)

val scheduler_label : ?faults:Fault.plan -> scheduler -> string
(** ["round_robin"], ["random"], ["stingy"], ["adversarial"]; with
    [faults] (any plan, {!Fault.none} included) the label gains a
    ["+faults"] suffix. *)

type result = {
  config : Config.t;
  outputs : Instance.t;
  transitions : int;
  rounds : int;
  messages_sent : int;
  deliveries : int;
  quiesced : bool;
}

val run :
  ?tracer:Trace.collector ->
  ?faults:Fault.plan ->
  ?max_rounds:int ->
  ?heartbeat:float ->
  variant:Config.variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  scheduler -> result
(** [faults] runs the scheduler under the plan: seeded duplication,
    loss with delayed retransmission, crash/restart from the persistent
    input partition, and healing partitions (see {!Fault}). Quiescence is
    then additionally gated on {!Fault.quiescent}, so [quiesced = true]
    means the run survived every fault {e and} stabilized afterwards.
    Absent [faults] and {!Fault.none} both run without fault state: the
    result, trace and stable metrics are byte-identical; only the event
    sink's [net.run] span's [scheduler] label differs (see
    {!scheduler_label}). The run is timed by a rooted [net.run]
    {!Observe.Profile} span, so sweep cells on pool workers aggregate
    with sequential runs; the sink's span of the same name keeps the real
    start times that [trace.json]'s worker tracks need.
    [max_rounds] (default 500) bounds the stabilization phase; a result
    with [quiesced = false] hit the bound. [heartbeat] (seconds, default
    [0.] = off) prints a [\[hb\] round=… transitions=…] progress line on
    stderr at most once per cadence during stabilization. When the
    {!Observe.Series} recorder is enabled, each stabilization round also
    samples [net.round_output_delta], [net.round_pending],
    [net.round_deliveries] and (under faults) [net.round_held] /
    [net.round_crashes_pending] at [tick = round]. *)

val sweep :
  ?jobs:int ->
  ?faults:Fault.plan ->
  ?heartbeat:float ->
  variant:Config.variant ->
  transducer:Transducer.t ->
  input:Instance.t ->
  (string * Policy.t * scheduler) list ->
  (string * result * Trace.event list) list
(** Run a batch of independent (label, policy, scheduler) sweep cells
    through a {!Parallel.Pool.map} of [jobs] members (default 1). Each
    cell seeds its own RNG and traces into a {e private} collector, so
    the result list — events included — is the same at every [jobs]
    and in cell order. Metrics recorded during each cell's run are
    merged back in cell order, so stable metric snapshots are
    [jobs]-independent too. Series recorded during a cell get a
    [cell=<label>] label (see {!Observe.Series.with_label}), keeping
    parallel cells' trajectories distinct; [faults] (one plan for every
    cell) and [heartbeat] are passed through to each cell's {!run}. With
    [faults], every cell's label gains a ["+faults"] suffix, in the
    result list and in the series label alike. *)

val heartbeat_prefix :
  ?max_steps:int ->
  variant:Config.variant ->
  policy:Policy.t ->
  transducer:Transducer.t ->
  input:Instance.t ->
  node:Value.t ->
  unit -> result
(** A run prefix consisting solely of heartbeat transitions of one node
    (Definition 3's "prefix of only heartbeat transitions"): no message is
    ever read. Stops when the node's state stops changing (or at
    [max_steps], default 200). [outputs] are the node's accumulated output
    facts. [rounds] reports the number of heartbeat steps actually taken
    (each step is its own one-transition round — this used to be
    hardwired to [0]). [quiesced] is [true] iff the node's state reached
    a fixpoint before [max_steps]; [quiesced = false] means the bound was
    hit while the state was still changing. *)
