(** Fixpoint evaluation of Datalog¬ programs.

    [naive] and [seminaive] compute the minimal fixpoint of the immediate
    consequence operator [T_P] (Section 2) for semi-positive programs —
    programs whose negated predicates are never derived by the rules being
    evaluated (their extent is fixed throughout). [stratified] runs a
    syntactic stratification bottom-up, each stratum with [seminaive].

    The optional [neg] argument overrides how a negated ground atom is
    tested; it receives the current total instance and the candidate fact.
    The default tests absence from the current instance, which is the
    paper's semantics for semi-positive programs and strata. The
    well-founded evaluator overrides it to test against a fixed
    underestimate. *)

open Relational

exception Diverged
(** Raised when a fixpoint exceeds its [max_facts] budget. Pure Datalog¬
    always terminates; the budget matters for ILOG programs with recursive
    value invention, whose output the paper leaves undefined when infinite
    (Section 5.2). *)

val skolem_functor : string -> string
(** Name of the Skolem functor associated with an invention relation
    ([f_R] in the paper). *)

val derive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> Instance.t
(** Facts derived by all satisfying valuations on the given instance (the
    [A] in [T_P(J) = J ∪ A]); result may overlap the instance. *)

val immediate_consequence :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> Instance.t
(** [T_P(J)]. *)

val naive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Ast.program -> Instance.t -> Instance.t
(** Least fixpoint above the input by naive iteration.
    @raise Diverged if the fixpoint grows past [max_facts]. *)

val seminaive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Ast.program -> Instance.t -> Instance.t
(** Least fixpoint by semi-naive (delta) iteration. Agrees with {!naive}
    on semi-positive programs (tested property). *)

val stratified :
  ?max_facts:int -> Ast.program -> Instance.t -> (Instance.t, string) result
(** Stratified semantics [P_k(...P_1(I)...)]; [Error] if not syntactically
    stratifiable. *)

val stratified_exn : ?max_facts:int -> Ast.program -> Instance.t -> Instance.t
(** @raise Invalid_argument if not stratifiable. *)

val iter_firings :
  probe:
    (int -> Joindb.atom_plan -> Value.t list -> (Fact.t -> unit) -> unit) ->
  Joindb.plan -> (Value.t Joindb.Env.t -> unit) -> unit
(** Delta plumbing for {!Ivm}: enumerate complete valuations of a plan's
    positive body, probing each atom position through a caller-supplied
    source. [probe i ap key emit] must pass every candidate fact for atom
    [i] whose keyed positions equal [key] to [emit]; the caller composes
    base and overlay databases, membership filters, and the counting
    partitions there. Inequality and negation checks are the caller's
    responsibility ({!Joindb.checks_pass}). *)

(** {2 EXPLAIN ANALYZE}

    When profiling is enabled ({!Observe.Profile.is_enabled}), every rule
    activation additionally records stable per-rule counters
    [eval.rule_fired] / [eval.rule_derived] / [eval.rule_deduped], a
    volatile [eval.rule_time] timing, and a [rule:<label>] profile span —
    all keyed by {!rule_label}. While profiling is off the evaluator pays
    a single atomic load per activation. *)

val rule_label : Ast.rule -> string
(** Flat label shared by the per-rule metrics and profile spans:
    [head<-body1,body2,!negated]. *)

type atom_report = {
  atom : Joindb.atom_plan;
  extent : int;  (** facts of this predicate/arity in the database *)
  lookups : int;  (** index probes issued for this atom *)
  est_candidates : int;  (** [lookups × extent]: a nested-loop scan's cost *)
  candidates : int;  (** facts actually examined after hashing *)
}

type rule_report = {
  plan : Joindb.plan;
  atom_reports : atom_report list;
  valuations : int;  (** complete positive-body valuations *)
  fired : int;  (** valuations passing inequality/negation checks *)
  derived : int;  (** facts derived by this pass not already in the db *)
}

val explain :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> rule_report list
(** One instrumented derivation pass of every rule over the given
    database (pass the fixpoint to see the plans under their real
    workload), with per-atom estimated-vs-actual candidate counts.
    Deterministic for a given program and database. *)

val pp_explain : Format.formatter -> rule_report list -> unit
(** [calm plan]'s rendering: each rule, its per-atom access paths with
    lookup/extent/candidate counts, and the valuation summary. *)
