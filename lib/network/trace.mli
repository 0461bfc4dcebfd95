(** Structured run traces: one event per transition, with the causal
    stamps of {!Causal}, for protocol inspection, provenance
    and empirical coordination detection ({!Provenance}). *)

open Relational

type event = {
  index : int;           (** transition number within the run *)
  node : Value.t;        (** the active node *)
  lamport : int;         (** Lamport clock of the event *)
  vector : (Value.t * int) list;
      (** vector clock (sorted association list; absent node = 0) *)
  origins : (Fact.t * int) list;
      (** per delivered copy: the send event it came from *)
  delivered : Fact.t list;   (** delivered message copies, multiplicity
                                 included *)
  sent : Fact.t list;        (** facts broadcast by this transition *)
  output_delta : Fact.t list;  (** output facts first produced here *)
  dup : int;
      (** fault duplication factor of this transition's sends (1 when
          failure-free) *)
  restart : bool;
      (** the node crashed and lost its state just before this
          transition *)
  injected : Fact.t list;
      (** message facts re-injected into the node's buffer on restart
          (at-least-once redelivery) *)
}
(** The fault annotations serialize only when non-default, so
    failure-free exports are byte-identical to pre-fault ones. *)

val stamp : event -> Causal.stamp
(** The event's causal stamp, for {!Causal.hb} / {!Causal.concurrent}. *)

type collector

val collector : unit -> collector

val record : collector -> event -> unit

val events : collector -> event list
(** In transition order. *)

val outputs_timeline : collector -> (int * Fact.t) list
(** [(transition index, fact)] for every output fact, in order. *)

val canonical : event list -> event list
(** A schedule-independent linear extension of happens-before: sorted by
    (lamport, node, index). Lamport clocks respect happens-before and
    equal-clock events are pairwise concurrent, so this refines the
    causal order deterministically — the stable tie-break that makes
    exports byte-identical across [--jobs]. *)

val sweep_jsonl : (string * event list) list -> string Seq.t
(** Deterministic export of several labeled traces (e.g. sweep cells),
    one JSONL line (newline included) per element: cells sorted by
    label, each cell's events in {!canonical} order, each line carrying
    a ["cell"] field. Byte-identical across [--jobs] for equal inputs.
    Each line is built when the sequence is read, so a writer that
    streams it holds one line at a time. *)

val causal_schema : string
(** ["calm-causal/v1"]. *)

val to_causal_json : network:Distributed.network -> event list -> string
(** The [calm-causal/v1] document: schema tag, network, and the events
    (in {!canonical} order) with their full causal stamps. Validated by
    {!Observe.Schema_check.validate_causal}. *)

val to_dot : event list -> string
(** The happens-before DAG in Graphviz DOT: one cluster per node,
    program-order edges solid, message deliveries dashed and labeled
    with the delivered facts. *)

val to_chrome_causal : network:Distributed.network -> event list -> string
(** Chrome trace_event rendering through {!Observe.Sink.chrome_document}:
    one track (tid) per network node, the Lamport clock as the synthetic
    time axis, message deliveries as flow events ("s"/"f" arrows between
    tracks). *)

val pp_event : Format.formatter -> event -> unit

val pp_summary : ?limit:int -> Format.formatter -> collector -> unit
(** The first [limit] (default 20) non-trivial events (those that
    delivered, sent, or output something). *)
