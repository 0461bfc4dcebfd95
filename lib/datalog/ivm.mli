(** Incremental view maintenance for stratified Datalog¬.

    A handle caches the saturated model of a program over an input — the
    IDB plus support state: per-fact derivation counts for non-recursive
    strata (counting algorithm), DRed over-delete/re-derive where
    counting is unsound (recursive strata) — and answers updates without
    re-saturating from scratch. Insertion-only deltas run semi-naive
    rounds seeded only with Δ against the handle's Joindb indexes, which
    are built lazily once and shared across probes; retractions
    decrement counts or take the DRed route; a stratum whose negated
    predicates are touched by a change is recomputed by itself over the
    maintained lower strata, never the whole program.

    The monotonicity scan's probes ask only what an insertion removes,
    and {!lost} answers that without building the new model unless a
    grown negated fact blocks an old firing.

    Work is metered by two stable counters: [eval.ivm_applies] (one per
    full-model run — {!apply}, {!update}, or {!lost}'s fallback) and
    [eval.ivm_rederived] (facts recomputed by a fallback — scratch
    stratum recomputation or DRed re-derivation). Under profiling, those
    runs open an [ivm.apply] span with fallbacks nested as
    [ivm.rederive]; a {!lost} that needs no full-model run opens
    neither.

    Correctness is pinned by the update-sequence test wall: incremental ≡
    from-scratch saturation ({!Refeval} as oracle) at every step of
    random insert/retract sequences, and {!lost} ≡ the difference of the
    two from-scratch models at every what-if step. *)

open Relational

type t
(** A materialization handle. Mutable: {!insert}/{!retract}/{!update}
    advance it destructively; {!apply} and {!lost} answer a what-if
    delta without committing (the handle only memoizes shared indexes).
    Not thread-safe — use one handle per domain. *)

val supported : Ast.program -> bool
(** Stratified semantics only: [Stratify.is_stratifiable]. *)

val materialize : ?max_facts:int -> Ast.program -> Instance.t -> t
(** Saturate the program over the given input and package the model with
    its support state. Derivation counts are built lazily, on the first
    retraction that needs them, so insertion-only users never pay for
    them.
    @raise Invalid_argument if the program is not stratifiable.
    @raise Eval.Diverged past [max_facts]. *)

val given : t -> Instance.t
(** The handle's current input. *)

val current : t -> Instance.t
(** The cached model: [given ∪] every derived fact — extensionally
    [Eval.stratified_exn p (given h)]. *)

val apply : t -> delta:Instance.t -> Instance.t
(** [apply h ~delta] is the model of [given h ∪ delta], computed by
    Δ-seeded semi-naive rounds against the cached model, without
    committing anything to the handle. *)

val lost : t -> Fact.t list -> Instance.t
(** [lost h facts] is the set of facts of [current h] missing from the
    model of [given h ∪ facts] ([facts] duplicate-free), without
    committing anything to the handle. It derives only what a loss could
    depend on: under inserts a fact can only be lost through a negated
    literal whose predicate grew, so
    - a program without negation answers empty, deriving nothing;
    - otherwise the insert is propagated, stratum by stratum up to the
      last one with a negated literal, only through the rules feeding a
      negation, and each stratum is searched for a {e seed}: a firing
      valid in the old model whose negated atom is now a grown fact;
    - no seed anywhere answers empty; the first seed falls back to the
      full-model what-if ({!apply}) and diffs it against [current h].
    Only that fallback counts in [eval.ivm_applies]. *)

val insert : t -> Instance.t -> Instance.t
(** Destructively add input facts and return the new model. *)

val retract : t -> Instance.t -> Instance.t
(** Destructively remove input facts (counting-decrement; DRed for
    recursive strata) and return the new model. *)

val update : t -> add:Instance.t -> remove:Instance.t -> Instance.t
(** Combined retract-then-insert against one consistent snapshot: the
    new input is [(given ∖ remove) ∪ add]. Returns the new model. On an
    exception (e.g. [Eval.Diverged]) the handle is left unchanged. *)
