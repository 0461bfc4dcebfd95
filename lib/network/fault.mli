(** Fault plans for network runs: the adversarial conditions that
    motivate CALM in the first place.

    The paper's coordination-free strategies (Theorems 4.3–4.5) are
    correct under {e any} fair run — including runs where the network
    duplicates messages, delays them arbitrarily, drops them (as long as
    a retransmission eventually arrives), crashes nodes (as long as the
    input partition is durable), or partitions and heals. A {!plan}
    describes one such adversarial-but-fair run deterministically from a
    seed, so faulty runs are reproducible and their causal traces
    replayable. It perturbs whichever scheduler runs the network: pass
    it to {!Run.run} or {!Run.sweep} as [~faults].

    Fault semantics (all fairness-preserving):
    {ul
    {- {b Duplication}: with probability [dup_prob], a transition's
       outgoing messages are enqueued [dup_copies]-fold instead of once
       per recipient. Extra copies are ordinary deliveries.}
    {- {b Loss with retransmission}: with probability [loss_prob], the
       copies of a sent fact bound for one recipient are removed from
       the buffer and re-enqueued [loss_delay] rounds later — the
       in-flight message is lost and a retransmission (same content,
       same causal origin) arrives on a later heartbeat. Eventual
       delivery, hence fairness, is preserved.}
    {- {b Crash/restart}: at its first transition at or after the
       scheduled round, a node loses its entire state (memory and
       output sections). The input partition is persistent — the edb is
       re-read on every transition — and every message fact the node had
       ever consumed is redelivered into its buffer (at-least-once
       delivery: the crash struck before the acknowledgement), so
       send-once protocols also recover.}
    {- {b Partition}: while a partition is active, message copies
       crossing the group boundary are held; they are released into the
       recipients' buffers when the partition heals after its bounded
       number of rounds.}}

    Probabilistic faults (duplication, loss) only strike during the
    first [horizon] rounds of the run, so every faulty run has a clean
    suffix and quiesces whenever its failure-free counterpart does. A
    {e round} here is a network-wide unit: [transitions / network size],
    uniform across perturbation and stabilization phases.

    Metrics (all stable): [network.dup_deliveries] (extra copies
    enqueued), [network.dropped] (copies removed for delayed
    retransmission), [network.crashes], [network.partition_rounds]
    (rounds with at least one active partition). *)

open Relational

type partition = {
  from_round : int;    (** first round the partition is active *)
  rounds : int;        (** heals after this many rounds (≥ 1) *)
  groups : Value.t list list;
      (** connectivity classes; a node in no group is its own class *)
}

type plan = {
  seed : int;          (** RNG seed for the probabilistic faults *)
  dup_prob : float;    (** per-transition duplication probability *)
  dup_copies : int;    (** copies per recipient when duplication strikes *)
  loss_prob : float;   (** per (fact, recipient) loss probability *)
  loss_delay : int;    (** rounds until the retransmission arrives *)
  horizon : int;       (** dup/loss only strike in rounds < horizon *)
  crashes : (Value.t * int) list;  (** (node, round) crash schedule *)
  partitions : partition list;
}

val none : plan
(** The empty plan: no faults. {!Run.run} under this plan is
    byte-identical to a run without [~faults] (results, traces,
    metrics). *)

val is_none : plan -> bool
(** No fault of any kind can ever strike. *)

val default : plan
(** A representative all-faults plan for smoke tests and CLI examples:
    seeded duplication, loss, one crash, one healing partition on a
    3-node network of nodes 1, 2, 3. *)

val to_string : plan -> string
(** Canonical [--faults] syntax; round-trips through {!of_string}. *)

val of_string : string -> (plan, string) result
(** Parse the [--faults] plan grammar: semicolon-separated clauses
    [seed=S], [dup=PxK], [loss=P:D], [horizon=H], [crash=N\@R]
    (repeatable), [part=G1|G2\@R+D] (repeatable; groups are
    comma-separated node ints). Example:
    ["seed=7;dup=0.4x3;loss=0.3:2;crash=2@4;part=1|2,3@2+3"]. *)

val check : plan -> network:Value.t list -> (unit, string) result
(** [Ok ()] when every crashed node and every partition member is in the
    network and no partition lists a node in two of its groups;
    otherwise an error naming the first such clause (in {!to_string}
    order) and the node. A crash outside the network would never fire,
    so a run under it could never quiesce; a node listed in two groups
    would silently stay in the first. *)

(** {1 Per-run fault state}

    Mutable bookkeeping threaded through one run by {!Run}: the RNG, the
    round counter, held (lost or partitioned) copies, the per-node
    delivered-fact log backing crash redelivery, and the not-yet-fired
    crash schedule. *)

type held_copy = {
  recipient : Value.t;
  fact : Fact.t;
  copies : int;
  release : int;            (** round at which the copies reappear *)
  stamps : Causal.held option;
      (** pending causal stamps of the held copies (traced runs only) *)
  depth : int;              (** adversarial depth of the held copies *)
}

type state

val start : plan -> network:Value.t list -> state

val round : state -> int
(** The current fault round: [transitions so far / network size]. *)

val tick : state -> unit
(** Account for one completed transition. *)

val note_round : state -> unit
(** Update round-granular bookkeeping (the [network.partition_rounds]
    metric); call once per transition, before processing faults. *)

val draw_dup : state -> sends:int -> int
(** The duplication factor for the current transition: [dup_copies] when
    duplication strikes (only possible when [sends > 0] (fact, recipient)
    copy groups are being enqueued and the round is within the horizon),
    else [1]. Consumes randomness only when a draw is possible. *)

val blocks : state -> sender:Value.t -> recipient:Value.t -> int option
(** [Some release_round] when an active partition separates sender from
    recipient (the copies are held until the heal). *)

val draw_loss : state -> int option
(** [Some release_round] when loss strikes a (fact, recipient) copy
    group: the copies are dropped now and retransmitted [loss_delay]
    rounds later. *)

val add_held : state -> held_copy -> unit

val take_due : state -> held_copy list
(** Remove and return the held copies whose release round has been
    reached, oldest first. *)

val record_delivery : state -> node:Value.t -> Fact.Set.t -> unit
(** Log the facts delivered to [node] (backing crash redelivery). *)

val crash_due : state -> node:Value.t -> bool
(** Whether [node] crashes now (first call at or after a scheduled crash
    round); consumes the schedule entry and counts the crash. *)

val redelivery : state -> node:Value.t -> Fact.t list
(** Every fact ever delivered to [node], sorted — the at-least-once
    redelivery injected into its buffer on restart. *)

val quiescent : state -> bool
(** No fault activity is pending: nothing held, no crash unfired, no
    partition active now or in the future, and probabilistic faults past
    their horizon. {!Run} refuses to declare quiescence before this. *)

val held_pending : state -> int
(** Total message copies currently held back (lost awaiting
    retransmission or blocked by a partition) — the per-round fault
    pressure the series recorder samples. *)

val crashes_pending : state -> int
(** Crashes scheduled but not yet struck. *)
