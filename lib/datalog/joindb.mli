(** Shared join substrate of the Datalog engines.

    A value of type {!t} is a per-predicate view of an instance whose
    hash indexes are built lazily, one per (arity, bound-position set)
    actually probed. Which argument positions of a body atom are
    determinate — constants, or variables bound by earlier atoms — is a
    static property of the rule, precomputed once as a {!plan}; a probe
    then answers "facts matching this atom under these bindings" with a
    single hash lookup instead of a scan of the predicate's facts. The
    plan also places each inequality of the rule at the first atom that
    binds both of its sides, and {!extend} tests it there, so a
    valuation that breaks it is cut before the later atoms are probed.

    {!Eval} (depth-first, tuple-at-a-time) and {!Ivm} (delta
    propagation) drive their joins through this module; the seed tree's
    [index]/[term_value]/[ground_atom] helpers live here once. *)

open Relational

module Env : Map.S with type key = string
module Smap : Map.S with type key = string

val default_neg : Instance.t -> Fact.t -> bool
(** Absence from the current instance: the paper's negation test for
    semi-positive programs and strata. *)

type t
(** An indexed instance. Indexes are built on demand and memoized;
    building is cheap (one pass per position set) and the structure is
    otherwise immutable. *)

val empty : t
val of_instance : Instance.t -> t

val probe :
  t -> string -> arity:int -> positions:int list -> Value.t list ->
  Fact.t list
(** [probe db pred ~arity ~positions key]: all facts of [pred] with the
    given arity whose arguments at [positions] equal [key], via the
    (lazily built) index for that position set. *)

val term_value : Value.t Env.t -> Ast.term -> Value.t
(** Value of a determinate term under an environment.
    @raise Invalid_argument on an unbound variable. *)

val skolem_functor : string -> string
(** Name of the Skolem functor associated with an invention relation
    ([f_R] in the paper). *)

val ground_atom : Value.t Env.t -> Ast.atom -> Fact.t
(** Ground an atom; invention heads are Skolemized (Section 5.2). *)

val checks_pass :
  Instance.t -> (Instance.t -> Fact.t -> bool) -> Value.t Env.t ->
  Ast.rule -> bool
(** The negation side conditions of a rule under a complete
    positive-body valuation. Its inequalities are not retested: a plan
    tests them while binding ({!extend}). *)

(** {2 Rule plans} *)

type slot =
  | Bind of int * string  (** free position: bind the variable *)
  | Check of int * string  (** repeated free variable: check equality *)

type atom_plan = {
  pred : string;
  arity : int;
  key_positions : int list;
  key_terms : Ast.term list;
  slots : slot list;
  ineqs : (Ast.term * Ast.term) list;
      (** the rule's inequalities tested once this atom is bound: those
          whose sides (a constant counts as bound) are all bound here and
          not before *)
}

type plan = {
  rule : Ast.rule;
  atoms : atom_plan array;
}

val plan_rule : Ast.rule -> plan
(** @raise Invalid_argument when a side of an inequality is a variable no
    positive atom binds — an unsafe rule, which {!Ast.check_rule}
    rejects. *)

val plan_program : Ast.program -> plan list

val key_of_env : Value.t Env.t -> atom_plan -> Value.t list
(** The probe key for an atom under the current bindings. *)

val matches : atom_plan -> Value.t list -> Fact.t -> bool
(** [matches ap key f]: [f] is a fact of the atom's predicate and arity
    whose keyed positions equal [key] — what {!probe} returns, decided
    for one fact. Probing a handful of facts by filtering them this way
    builds no index. *)

val extend : Value.t Env.t -> atom_plan -> Fact.t -> Value.t Env.t option
(** Bind the free positions of a probed fact, then test the atom's
    [ineqs]; [None] when a repeated free variable clashes or
    an inequality fails. Keyed positions are already guaranteed equal by
    the probe. *)

(** {2 EXPLAIN} *)

val pp_atom_plan : Format.formatter -> atom_plan -> unit
(** One line: index choice (hashed positions + key terms, or full scan),
    the bind/check slots the probe loop applies per candidate, and the
    inequalities it then tests ([filter x != y]). *)
