(** Abstract syntax of Datalog¬ (Section 2 of the paper) and of ILOG¬
    invention heads (Section 5.2).

    A rule is the paper's quadruple [(head, pos, neg, ineq)]. Rules must be
    range-restricted: every variable of the rule occurs in a positive body
    atom. We additionally allow constants in atoms and in inequalities,
    which the paper's examples use implicitly. *)

open Relational

(** Source locations, threaded from the lexer through the parser so that
    the static-analysis layer can report span-accurate diagnostics.
    Lines and columns are 1-based; a span covers [[start, stop)] with
    [stop] one column past the last character. *)
module Span : sig
  type pos = { line : int; col : int }

  type t = { start : pos; stop : pos }

  val dummy : t
  (** The zero span, used for synthesized syntax. *)

  val is_dummy : t -> bool
  val make : start:pos -> stop:pos -> t

  val union : t -> t -> t
  (** Smallest span covering both; dummies are absorbing-neutral. *)

  val pp : Format.formatter -> t -> unit
  (** ["3:5-12"] within one line, ["3:5-4:2"] across lines. *)

  val to_string : t -> string
end

type 'a located = { value : 'a; span : Span.t }

type var = string

type term =
  | Var of var
  | Const of Value.t

type atom = {
  pred : string;
  invents : bool;
      (** [true] for an ILOG invention atom [R(⋆, u1, ..., uk)]; the [*]
          slot is implicit and not part of [terms]. Only legal in heads. *)
  terms : term list;
}

type rule = {
  head : atom;
  pos : atom list;
  neg : atom list;
  ineq : (term * term) list;
}

type program = rule list

(** Located counterparts, produced by {!Parser.parse_program_located}.
    Rules and literals carry source spans; [lbody] preserves the source
    order of the body literals. *)
type located_literal =
  | Lpos of atom located
  | Lneg of atom located
  | Lineq of (term * term) located

type located_rule = {
  lhead : atom located;
  lbody : located_literal list;
  lspan : Span.t;  (** whole rule, head through final ['.'] *)
}

type located_program = located_rule list

val rule_of_located : located_rule -> rule
(** Forget the spans; positive, negative, and inequality literals keep
    their relative source order within each list. *)

val strip : located_program -> program

val pos_span : located_rule -> int -> Span.t
val neg_span : located_rule -> int -> Span.t
(** Span of the [i]-th positive / negative literal (0-based,
    matching the lists of {!rule_of_located}); {!Span.dummy} out of
    range. *)

val atom : string -> term list -> atom
val invention_atom : string -> term list -> atom
val atom_arity : atom -> int
(** Arity counting the invention slot. *)

val rule :
  ?neg:atom list -> ?ineq:(term * term) list -> atom -> atom list -> rule
(** [rule head pos] builds and validates a rule. @raise Invalid_argument if
    the rule is not well-formed (see {!check_rule}). *)

val check_rule : rule -> (unit, string) result
(** Well-formedness: non-empty [pos]; all variables (head, neg, ineq)
    occur in [pos]; no invention atoms in bodies; negated atoms carry no
    invention flag. *)

val vars_of_term : term -> var list
val vars_of_atom : atom -> var list
val vars_of_rule : rule -> var list
(** In first-occurrence order, without duplicates. *)

val rule_is_positive : rule -> bool
(** No negated atoms (inequalities allowed). *)

val rule_has_ineq : rule -> bool

val constants : program -> Value.t list
(** The constants of the program's atoms (heads included) and
    inequalities, ascending and without duplicates: the values a
    program's query must fix ({!Relational.Query.field-constants}). *)

val schema_of : program -> Schema.t
(** [sch(P)]: minimal schema the program is over (invention slots counted).
    @raise Invalid_argument if a predicate is used with two arities. *)

val arity_conflicts :
  located_program -> (Span.t * string * (int * Span.t)) list
(** The span of each atom whose predicate was first used with another
    arity, in source order (a rule's head, then its body literals), with
    a message saying so and that first use's arity and span. *)

val idb : program -> Schema.t
(** Predicates occurring in rule heads. *)

val edb : program -> Schema.t
(** [sch(P) \ idb(P)]. *)

val preds_of_rule : rule -> string list
val equal_term : term -> term -> bool
val equal_atom : atom -> atom -> bool
val equal_rule : rule -> rule -> bool
val equal_program : program -> program -> bool
(** Set-equality of rules. *)

val pp_term : Format.formatter -> term -> unit
val pp_atom : Format.formatter -> atom -> unit
val pp_rule : Format.formatter -> rule -> unit
val pp_program : Format.formatter -> program -> unit
val to_string : program -> string
