(** Empirical coordination detection over the query zoo: the run-level
    cross-check of the static CALM placements.

    For each query, compile it ({!Compile.compile}: its
    hierarchy-level strategy, or the coordinated barrier when [Beyond]),
    run it over a battery of policies × schedulers with causal tracing,
    and ask {!Network.Provenance.coordinated} whether each correct,
    quiescent run shows a heard-from-all-nodes cut. A query is
    {e observed coordination-free} when some such run has no cut —
    matching the existential quantification over policies and runs in
    the paper's Definition 3 — and the verdict must agree with the
    static claim: observed-free iff the static level is within
    Mdisjoint. A coordination-free level also promises the right output
    on every run (Theorems 4.3/4.4), so a single wrong run under it is a
    disagreement too.

    Win-move is the "sometimes" case (Zinn–Green–Ludäscher): under good
    domain-guided policies (everything co-located, or fully replicated)
    its runs are coordination-free, while under a value-scattering
    domain-guided policy every win fact's cone spans the whole network. *)

open Relational

type policy_verdict = {
  label : string;           (** "<policy>/<scheduler>" *)
  correct : bool;           (** run output = Q(I) *)
  quiesced : bool;
  coordinated : bool;       (** {!Network.Provenance.coordinated} *)
}

type entry = {
  name : string;
  level : Hierarchy.level;        (** static claim *)
  static_free : bool;             (** level within Mdisjoint *)
  runs : policy_verdict list;
  observed_free : bool;
      (** some correct, quiescent run without a heard-from-all cut *)
  agree : bool;
      (** [observed_free = static_free], and no run is wrong when
          [static_free] *)
}

val default_network : Distributed.network
(** Nodes 1, 2 and 3: the network of {!detect_query} when none is given,
    and of {!forced_disagree}. *)

val detect_query :
  ?network:Distributed.network ->
  ?policies:Network.Policy.t list ->
  ?schedulers:(string * Network.Run.scheduler) list ->
  ?faults:Network.Fault.plan ->
  ?jobs:int ->
  name:string ->
  level:Hierarchy.level ->
  query:Query.t ->
  input:Instance.t ->
  unit -> entry
(** Defaults: 3-node network [{1,2,3}], the {!Network.Netquery}
    default policy battery (domain-guided only when the compiled
    strategy requires it), and the default scheduler battery. With
    [faults], every run is under the plan and labels gain a ["+faults"]
    suffix ({!Network.Run.sweep}). *)

val detect_compiled :
  ?network:Distributed.network ->
  ?policies:Network.Policy.t list ->
  ?schedulers:(string * Network.Run.scheduler) list ->
  ?faults:Network.Fault.plan ->
  ?jobs:int ->
  name:string ->
  compiled:Compile.compiled ->
  input:Instance.t ->
  unit -> entry
(** Same, for an already-compiled query (e.g. from
    {!Compile.compile_program}). *)

val scatter_policy : Schema.t -> Distributed.network -> Network.Policy.t
(** The "bad" domain-guided policy: value [Int i] lives on node
    [network[(i-1) mod n]] (other values by hash), so connected data is
    scattered across the whole network and resolving a game chain must
    hear from everyone. *)

val winmove_input : Instance.t
(** The move chain [1→2→3→4] used for the win-move table. *)

val zoo : ?jobs:int -> ?faults:Network.Fault.plan -> unit -> entry list
(** The E25 battery: tc (M), comp_tc and win-move (Mdisjoint — win-move
    with the scatter policy appended to the battery), and q_clique 3,
    q_star 2, triangles-unless-two-disjoint (Beyond, barrier strategy),
    each on inputs with nonempty output so the detector has anchors to
    inspect. With [faults], every run in the battery is under the given
    plan (labels gain a ["+faults"] suffix): the static/empirical
    agreement must survive duplication, loss, crash/restart, and
    partitions. *)

val exit_code : entry -> int
(** [0] when the entry agrees, [2] when it disagrees — the contract of
    [calm detect]'s exit status. *)

val forced_disagree :
  ?jobs:int -> ?faults:Network.Fault.plan -> unit -> entry
(** A fixture engineered to disagree (exit code 2): the non-monotone
    triangles-unless-two-disjoint query compiled at the wrong [Monotone]
    level, with a policy splitting the triangle from the disjoint edges,
    run. Stays DISAGREE under any fault plan that does not crash {e
    both} triangle-holding nodes (simultaneous wipes would retract the
    premature wrong outputs); {!Network.Fault.default} crashes only
    node 2. *)

val pp_entry : Format.formatter -> entry -> unit
