(** Reference nested-loop engine (the seed implementation, frozen).

    Tuple-at-a-time backtracking over per-predicate fact lists, rescanning
    every fact of a predicate at every atom — the pre-index engine kept as
    an executable specification. The equivalence test wall checks {!Eval}
    against it on the query zoo and on random programs.

    Records no metrics: reference runs leave [eval.*] counters
    untouched. *)

open Relational

val derive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  Ast.program -> Instance.t -> Instance.t

val naive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Ast.program -> Instance.t -> Instance.t
(** @raise Eval.Diverged past [max_facts]. *)

val seminaive :
  ?neg:(Instance.t -> Fact.t -> bool) ->
  ?max_facts:int ->
  Ast.program -> Instance.t -> Instance.t
(** @raise Eval.Diverged past [max_facts]. *)

val stratified :
  ?max_facts:int -> Ast.program -> Instance.t -> (Instance.t, string) result
