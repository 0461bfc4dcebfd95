(** Abstract queries.

    A query (Section 2) is a generic mapping from instances over an input
    schema to instances over an output schema. Genericity — commuting with
    every permutation of [dom] — cannot be checked once and for all, so
    {!check_generic} provides a randomized spot-check used by the test
    suite.

    A query that mentions a value (a Datalog program with the constant
    [3] in an atom or an inequality) commutes only with the permutations
    that fix that value. {!field-constants} lists such values, and the
    query is taken to be generic under their pointwise stabiliser: the
    exhaustive monotonicity scan probes one base per orbit of that group
    and counts the others, so a wrong [constants] can hide a violation.
    {!check_generic} moves only the values outside [constants]. *)

type delta = { facts : Fact.t list; instance : Instance.t Lazy.t }
(** An extension presented as a delta against some base: the raw fact
    list (duplicate-free, what staged witnesses and the incremental
    engine consume) plus the {!Instance.t} view, forced only by consumers
    that genuinely need a set — the scan enumerates thousands of deltas
    per base and most probes never build the set. *)

val delta_of_instance : Instance.t -> delta
val delta_of_facts : Fact.t list -> delta
val delta_instance : delta -> Instance.t

type t = {
  name : string;
  input : Schema.t;
  output : Schema.t;
  constants : Value.t list;
      (** The values the query mentions: it commutes with every
          permutation of [dom] that fixes each of them, and need not
          with the others. [[]] for a fully generic query. *)
  eval : Instance.t -> Instance.t;
  witness :
    (base:Instance.t -> expected:Instance.t -> delta -> Fact.t option) option;
      (** Optional staged membership fast path: [w ~base ~expected d]
          must equal
          [Instance.first_missing expected (apply _ (union base d))] —
          the least fact of [expected] outside [Q(base ∪ d)] — but may
          compute it without materializing [Q]. The partial application
          [w ~base ~expected] is the place for per-base work (interning,
          resolving [expected]): the monotonicity scan stages it once per
          base and probes every admissible extension through it.
          Correctness is pinned by the engine-equivalence test wall. *)
  maintain : (Instance.t -> delta -> Instance.t) option;
      (** Optional incremental route: [m base] materializes [Q(base)]
          once (saturated IDB plus support state), and the returned
          probe answers, for each delta, the facts of [Q(base)] that it
          removes — [diff (apply _ base) (apply _ (union base d))] —
          without re-saturating from scratch. Losses are enough for
          {!stage}, whose [expected] is a subset of [Q(base)] on this
          route; almost every probe of a scan loses nothing and answers
          with the empty instance. Supplied by [Datalog.Program.query]
          via [Datalog.Ivm]; used by {!stage} when no witness is
          registered. *)
}

val make :
  ?witness:(base:Instance.t -> expected:Instance.t -> delta -> Fact.t option) ->
  ?maintain:(Instance.t -> delta -> Instance.t) ->
  ?constants:Value.t list ->
  name:string -> input:Schema.t -> output:Schema.t ->
  (Instance.t -> Instance.t) -> t
(** [constants] defaults to [[]]. *)

val apply : t -> Instance.t -> Instance.t
(** Restricts the input to the input schema, evaluates, and checks the
    result is over the output schema.
    @raise Invalid_argument if the result leaves the output schema. *)

val stage :
  t -> base:Instance.t -> expected:Instance.t -> delta -> Fact.t option
(** [stage q ~base ~expected] is a probe answering, for each extension
    delta [d], the least fact of [expected] not in [apply q (base ∪ d)]
    ([None] when [expected] is covered) — dispatching to the query's
    {!field-witness} when present, then to {!field-maintain}, otherwise
    unioning and evaluating per probe (the non-witness routes skip
    [apply]'s output-schema assertion). Apply it partially and reuse the
    result: per-base work (witness staging, IVM materialization) happens
    at staging time.

    The {!field-maintain} route requires [expected ⊆ apply q base], as
    the monotonicity scan's [expected = Q(base)] is: it sees only the
    facts of [Q(base)] a delta removes, answers the least of them in
    [expected], and answers [None] without reading [expected] when the
    delta removes none. The witness and evaluating routes answer for any
    [expected]. *)

type route = Witness | Ivm | Eval

val route : t -> route
(** Which implementation {!stage} will dispatch to — the scan records it
    per probe group. *)

val check_generic : ?trials:int -> ?seed:int -> t -> Instance.t -> bool
(** [check_generic q i] verifies [Q(π I) = π (Q I)] for randomly chosen
    permutations [π] of [adom I] minus [q.constants] (extended with fresh
    values that are not constants either), so every [π] fixes the
    query's constants. *)
