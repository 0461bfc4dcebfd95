(** The CALM hierarchy of the paper (Figures 1 and 2) as a datatype, with
    both syntactic (Datalog-fragment) and empirical (bounded-checker)
    placement of queries. *)

open Relational

type level =
  | Monotone          (** M — original transducer networks, F0 *)
  | Domain_distinct   (** Mdistinct = E — policy-aware, F1 *)
  | Domain_disjoint   (** Mdisjoint — domain-guided, F2 *)
  | Beyond            (** C \ Mdisjoint: requires coordination *)

val levels : level list
(** In increasing order of weakness. *)

val to_string : level -> string
val monotonicity_class : level -> string
(** "M" / "Mdistinct" / "Mdisjoint" / "C". *)

val transducer_model : level -> string
(** The weakest transducer-network model whose coordination-free fragment
    captures the level ("original" / "policy-aware" / "domain-guided" /
    "none"). *)

val datalog_fragment : level -> string
(** The Datalog variant of Figure 2 associated with the level. *)

val leq : level -> level -> bool
(** Inclusion order: [Monotone ≤ Domain_distinct ≤ Domain_disjoint ≤
    Beyond]. *)

val of_fragment : Datalog.Fragment.t -> level
(** Sound syntactic placement: Datalog/Datalog(≠) → [Monotone],
    SP-Datalog → [Domain_distinct], (semi-)connected stratified →
    [Domain_disjoint], otherwise [Beyond] (no guarantee — the query may
    still sit lower). *)

val place_empirically :
  ?bounds:Monotone.Checker.bounds -> ?jobs:int -> Query.t -> level
(** The one empirical placement: {!Monotone.Checker.check_exhaustive}
    for [Plain], then [Distinct], then [Disjoint], stopping at the first
    class with no violation within [bounds] (default
    {!Monotone.Checker.default_bounds}); [Beyond] when all three are
    violated. Per base the admissible extensions nest (Disjoint ⊆
    Distinct ⊆ Plain) and a probe's answer does not depend on the kind,
    so the classes skipped would hold too: the level is the one read off
    all three outcomes, at the cost of one scan for a monotone query.
    [jobs] fans each scan across a Domain pool without changing the
    level. *)

(** Where a level comes from. *)
type source =
  | Syntactic of Datalog.Fragment.t
      (** a Figure 2 arrow from the program's fragment: certain *)
  | Bounded of Monotone.Checker.bounds
      (** {!place_empirically} within these bounds: evidence only *)
  | Given  (** stated by the caller (e.g. a zoo query's paper level) *)

val pp_placement : Format.formatter -> level * source -> unit
(** The one placement line: ["placement: <level> (syntactic: <fragment>)"],
    ["placement: <level> (bounded: dom D, fresh F, base B, ext E)"] or
    ["placement: <level> (given)"]. *)
