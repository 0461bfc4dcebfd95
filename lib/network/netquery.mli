(** "A transducer network computes a query" (Section 4.1.4): every fair
    run on every network/policy produces exactly [Q(I)] as its union of
    outputs. This module checks that property over a finite battery of
    schedulers and policies. *)

open Relational

val default_schedulers : (string * Run.scheduler) list

val default_policies :
  ?domain_guided_only:bool -> Schema.t -> Distributed.network ->
  Policy.t list
(** hash-fact, first-attribute, hash-value, replicate-all, and single-node
    policies (only the domain-guided ones when restricted). *)

val grid :
  Policy.t list ->
  (string * Run.scheduler) list ->
  (string * Policy.t * Run.scheduler) list
(** The policy × scheduler sweep cells for {!Run.sweep}, policy-major,
    labelled ["<policy>/<scheduler>"]. *)

type verdict = {
  expected : Instance.t;
  runs : (string * Run.result) list;   (** "<policy>/<scheduler>" label *)
  mismatches : string list;            (** labels whose output ≠ expected *)
  all_quiesced : bool;
}

val consistent : verdict -> bool
(** No mismatches and every run quiesced. *)

val judge :
  expected:Instance.t -> (string * Run.result * 'a) list -> verdict
(** The verdict over {!Run.sweep} results: each cell's output compared
    with [expected] (normally [Q(input)]). *)

val check :
  ?schedulers:(string * Run.scheduler) list ->
  ?policies:Policy.t list ->
  ?max_rounds:int ->
  ?jobs:int ->
  variant:Config.variant ->
  transducer:Transducer.t ->
  query:Query.t ->
  input:Instance.t ->
  Distributed.network -> verdict
(** Runs the transducer network on the input under every
    scheduler × policy combination and compares the accumulated output
    against [Q(input)] (cells as in {!grid}, labels as returned by
    {!Run.sweep}). With [jobs > 1]
    the independent sweep cells run on a Domain pool; the verdict is
    unchanged. *)

val check_traced :
  ?schedulers:(string * Run.scheduler) list ->
  ?policies:Policy.t list ->
  ?faults:Fault.plan ->
  ?max_rounds:int ->
  ?jobs:int ->
  variant:Config.variant ->
  transducer:Transducer.t ->
  query:Query.t ->
  input:Instance.t ->
  Distributed.network -> verdict * (string * Trace.event list) list
(** Like {!check}, additionally running every cell under [faults] when
    given, and returning each cell's causal trace (labels as returned by
    {!Run.sweep}). Cell order —
    events included — is [jobs]-independent. *)
