(** Incremental view maintenance for stratified Datalog¬, insert-only.

    A program is compiled once ({!compile}) into its strata and the rule
    plans {!lost} runs: each negation-feeding rule once per positive
    atom with that atom first (Δ-first), each rule once per negated atom
    with that atom first (the seed search). A handle caches the
    saturated model of a compiled program over an input, with Joindb
    indexes over it that are built lazily once and shared across
    probes. The
    monotonicity classes quantify over extensions only
    ([Q(I) ⊆ Q(I ∪ J)]), so the one question a handle answers is
    {!lost}: which facts of the model does an insertion remove? It
    answers without saturating the extended input unless a grown negated
    fact blocks an old firing.

    Work is metered by the stable counter [eval.ivm_applies]: one per
    saturation of an extended input, {!lost}'s fallback. Under
    profiling that saturation opens an [ivm.apply] span; a {!lost} that
    needs none opens neither.

    Correctness is pinned by the what-if test wall: at every step of
    random sequences, {!lost} ≡ the difference of the two from-scratch
    models ({!Refeval} as oracle), and {!current} does not move. *)

open Relational

type compiled
(** What a handle needs from the program alone: its strata and the
    Δ-first and seed plans of each. Immutable, so one compiled program
    serves every base and can be shared across domains. *)

val compile : Ast.program -> compiled
(** Stratify the program and plan its strata.
    @raise Invalid_argument if the program is not stratifiable. *)

type t
(** A materialization handle. {!lost} leaves the model it holds
    unchanged; the handle only memoizes shared indexes, so it is not
    thread-safe — use one handle per domain. *)

val materialize : compiled -> Instance.t -> t
(** Saturate the compiled program over the given input. *)

val current : t -> Instance.t
(** The cached model: the input and every derived fact — extensionally
    [Eval.stratified_exn p input]. *)

val lost : t -> Fact.t list -> Instance.t
(** [lost h facts] is the set of facts of [current h] missing from the
    model of the handle's input ∪ [facts] ([facts] duplicate-free). It
    derives only what a loss could depend on: under inserts a fact can
    only be lost through a negated literal whose predicate grew, so
    - a program without negation answers empty, deriving nothing;
    - otherwise the insert is propagated, stratum by stratum up to the
      last one with a negated literal, only through the rules feeding a
      negation, and each stratum is searched for a {e seed}: a firing
      valid in the old model whose negated atom is now a grown fact;
    - a propagation round runs only the Δ-first plans whose front
      predicate its Δ holds, with the front atom over Δ; the relations
      the call builds (the grown facts, each round's Δ) are a handful of
      facts, scanned rather than indexed ({!Joindb.matches});
    - no seed anywhere answers empty; the first seed falls back to
      saturating the extended input and diffs it against [current h].
    Only that fallback counts in [eval.ivm_applies]. *)
