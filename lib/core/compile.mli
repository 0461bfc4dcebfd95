(** From a query and its hierarchy level to a coordination-free
    transducer: the constructive direction of Theorems 4.3/4.4 and
    Corollary 4.6 packaged as a compiler. *)

open Relational

type compiled = {
  level : Hierarchy.level;
  query : Query.t;
  transducer : Network.Transducer.t;
  variant : Network.Config.variant;
      (** the weakest model variant the strategy needs *)
  domain_guided_only : bool;
      (** whether correctness requires domain-guided policies *)
}

val strategy_for : Hierarchy.level -> Query.t -> Network.Transducer.t
(** [Monotone] → broadcast, [Domain_distinct] → absence,
    [Domain_disjoint] → domain-request.
    @raise Invalid_argument on [Beyond] — no coordination-free strategy
    exists (that is the paper's point). *)

val coordinated : Query.t -> compiled
(** The coordinated fallback: {!Strategies.Barrier} under the original
    model ([Id] and [All], no policy relations). Computes {e any} query
    correctly on any policy, but every output's causal cone contains a
    heard-from-all-nodes cut — the empirically-coordinated complement of
    the coordination-free strategies, at level [Beyond]. *)

val compile : level:Hierarchy.level -> Query.t -> compiled
(** The level's coordination-free strategy ({!strategy_for}), or
    {!coordinated} at [Beyond]. Total. *)

val compile_program :
  ?bounds:Monotone.Checker.bounds -> ?jobs:int -> ?level:Hierarchy.level ->
  Datalog.Program.t -> compiled
(** Level defaults to the program's syntactic placement
    ({!Hierarchy.of_fragment}); when that is [Beyond] the empirical
    placement is tried on [jobs] domains ({!Hierarchy.place_empirically};
    the level does not depend on [jobs]), and a program that stays
    [Beyond] compiles to {!coordinated}. *)
