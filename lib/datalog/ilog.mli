(** ILOG¬ — Datalog¬ with value invention (Section 5.2 of the paper).

    Invention relations are those that appear in a head with the invention
    slot [R(⋆, ū)]; their first position is the invention position.
    Evaluation Skolemizes the invention slot (done natively by {!Eval}),
    valuations range over the Herbrand expansion, and a program whose
    fixpoint is infinite has undefined output — reported here as
    {!Divergent}. *)

open Relational

type outcome =
  | Output of Instance.t
  | Divergent

val invention_relations : Ast.program -> string list
(** Relations that occur with an invention slot in some head. It is an
    error (reported by {!validate}) for a relation to occur both with and
    without the slot in heads. *)

val validate : Ast.program -> (unit, string) result
(** Checks the invention-relation consistency condition above. *)

val unsafe_positions : Ast.program -> (string * int) list
(** The smallest set closed under the two rules of Section 5.2: invention
    positions are unsafe, and unsafety propagates from a positive body atom
    position to any head position holding the same variable. Positions are
    1-based and count the invention slot. *)

val is_weakly_safe : outputs:string list -> Ast.program -> bool
(** No output relation has an unsafe position (wILOG¬). *)

val is_safe_output : Instance.t -> bool
(** Dynamic safety: the output contains no invented values. Weak safety
    implies this for every input. *)

val is_sp_wilog : Ast.program -> bool
(** Negation restricted to edb predicates (SP-wILOG). *)

val is_semi_connected_wilog : Ast.program -> bool
(** Semi-connected wILOG¬: same criterion as {!Connectivity.is_semi_connected}
    (connectivity only reads positive bodies, so invention heads do not
    affect it). *)

val eval :
  ?max_facts:int -> Ast.program -> Instance.t -> (outcome, string) result
(** Stratified evaluation with invention; [Error] when not stratifiable or
    not consistent per {!validate}. [max_facts] (default 50_000) bounds the
    Herbrand expansion; exceeding it yields [Ok Divergent]. *)

val eval_output :
  ?max_facts:int -> outputs:string list -> Ast.program -> Instance.t ->
  (Instance.t, string) result
(** Convenience: evaluate and restrict to the output relations; [Error] on
    divergence too. *)

val query :
  ?max_facts:int -> name:string -> outputs:string list -> Ast.program ->
  (Query.t, string) result
(** Package a validated, stratifiable wILOG¬ program as an abstract query.
    The returned query raises [Invalid_argument] at evaluation time if the
    program diverges on an input (the paper leaves such outputs
    undefined). [Error] on static problems (unstratifiable, inconsistent
    invention, output relation not derived or not weakly safe). The
    query's {!Relational.Query.field-constants} are {!Ast.constants} of
    the program. *)
