(** Top-level Datalog¬ program API.

    Bundles a parsed program with its designated output relations (the
    paper's convention: relation [O] is the intended output, edb relations
    are the input) and a choice of semantics, and exposes it as a
    {!Relational.Query.t}. *)

open Relational

type semantics =
  | Stratified     (** stratified semantics; rejects unstratifiable programs *)
  | Well_founded   (** true facts of the well-founded model *)

type t = {
  rules : Ast.program;
  outputs : string list;
  semantics : semantics;
}

val make :
  ?outputs:string list -> ?semantics:semantics -> Ast.program -> t
(** Default outputs: [["O"]]. Default semantics: [Stratified]. [Adom]
    rules are added via {!Adom.augment}. @raise Invalid_argument when an
    output relation is not an idb relation of the program, or when
    [Stratified] is chosen for an unstratifiable program. *)

val parse : ?outputs:string list -> ?semantics:semantics -> string -> t
(** {!Parser.parse_program} followed by {!make}. *)

val input_schema : t -> Schema.t
val output_schema : t -> Schema.t
val fragment : t -> Fragment.t

val run : t -> Instance.t -> Instance.t
(** Evaluate on an input instance and restrict to the output relations. *)

val query : name:string -> t -> Query.t
(** Package as an abstract query. [Stratified] programs install a
    maintenance route ({!Relational.Query.t.maintain}): staging
    materializes an {!Ivm} handle for the base once, and each probe
    returns the facts of [Q(base)] that Δ removes — {!Ivm.lost}
    restricted to the outputs — instead of re-running the engine on
    [base ∪ Δ]. [Well_founded] programs evaluate per probe. The query's
    {!Relational.Query.field-constants} are {!Ast.constants} of the
    rules. *)
