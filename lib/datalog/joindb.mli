(** Shared join substrate of the Datalog engines.

    A value of type {!t} is a per-predicate view of an instance whose
    hash indexes are built lazily, one per (arity, bound-position set)
    actually probed. Which argument positions of a body atom are
    determinate — constants, or variables bound by earlier atoms — is a
    static property of the rule, precomputed once as a {!plan}; a probe
    then answers "facts matching this atom under these bindings" with a
    single hash lookup instead of a scan of the predicate's facts.

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

val of_facts : Fact.t list -> t
(** Index a raw fact list (duplicate-free) without building an
    {!Instance.t} first — the overlay databases of the IVM layer. *)

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
(** Inequality and negation side conditions of a rule under a complete
    positive-body valuation. *)

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
}

type plan = {
  rule : Ast.rule;
  atoms : atom_plan array;
}

val plan_rule : Ast.rule -> plan
val plan_program : Ast.program -> plan list

val key_of_env : Value.t Env.t -> atom_plan -> Value.t list
(** The probe key for an atom under the current bindings. *)

val extend : Value.t Env.t -> slot list -> Fact.t -> Value.t Env.t option
(** Bind the free positions of a probed fact; [None] when a repeated
    free variable clashes. Keyed positions are already guaranteed equal
    by the probe. *)

(** {2 EXPLAIN} *)

val pp_atom_plan : Format.formatter -> atom_plan -> unit
(** One line: index choice (hashed positions + key terms, or full scan)
    and the bind/check slots the probe loop applies per candidate. *)
