(** Bounded-exhaustive membership checking for the monotonicity
    classes.

    A [Violated] outcome is a certificate: the violating pair is concrete
    and recheckable. A [No_violation] outcome is evidence up to the bounds
    explored (membership is undecidable in general). For the paper's
    separating queries the violating pairs are small, so modest bounds
    decide the separations exactly.

    {!check_exhaustive} spends genericity: it probes one base per orbit
    of the permutations of the value pool that fix the query's
    {!Relational.Query.field-constants}, and counts the rest. The base
    of the first violating pair leads its orbit (an earlier image would
    hold an earlier violating pair, see {!Enumerate}), so the outcome,
    the certificate and every count are those of the scan that probes
    every base. A query that is not generic under that group, such as
    one that tests a value it does not list in [constants], can have a
    violation this scan misses. {!check_on_bases} probes every base it
    is given. *)

open Relational

type outcome =
  | No_violation of { pairs : int }  (** number of admissible pairs tested *)
  | Violated of Classes.violation

val is_violation : outcome -> bool

type bounds = {
  dom_size : int;    (** values available to base instances *)
  fresh : int;       (** new values available to extensions *)
  max_base : int;    (** max facts in a base instance *)
  max_ext : int;     (** max facts in an extension; the [i] of [Mᵢ] *)
}

val default_bounds : bounds
(** [{ dom_size = 3; fresh = 2; max_base = 4; max_ext = 2 }]: the one
    bounds default. The checkers here, the CLI's bound options and the
    empirical placement of a compiled program all default to it. *)

val check_exhaustive :
  ?bounds:bounds -> ?jobs:int -> Classes.kind -> Query.t -> outcome
(** Tries every base over the query's input schema within bounds, and
    every admissible extension of it. The per-base groups of probes go
    through a {!Parallel.Pool.search} of [jobs] members (default 1, which
    runs them in order on the calling domain); the verdict — including the
    certificate and the pair count — is the same at every [jobs],
    because the search reports the first violation in enumeration order.

    The scan is grouped per base, and each group decides in its own
    task (so on a worker under [jobs > 1]) whether its base leads its
    orbit ({!Enumerate.is_leader}). A base that does not is neither
    evaluated nor walked: its extensions are counted ([Σ C(n, s)] over
    {!Enumerate.candidate_count}, {!Enumerate.subsets_count}). For a
    leader, [Q(base)] is evaluated once; when it is empty the
    extensions are counted the same way, since an empty output cannot
    lose facts. Otherwise the base's candidate facts are built once
    ({!Enumerate.candidates}) and every admissible extension
    {!Enumerate.subsets_until} walks is probed against [Q(base)], in
    {!Enumerate.subsets_up_to}'s order. [monotone.probes] and
    [pairs_scanned] count every admissible pair, probed or counted, and
    [monotone.cache_hits] counts the pairs after a group's first.

    Under {!Observe.Profile} the scan takes the same path. It opens a
    [scan] span, one [scan/base] span per group (with [qbase] and
    [stage] under it for a leader) and none per probe, so the base
    span's self time is the probe walk. Each base span is annotated
    once, with counts the group already has: a probed group adds its
    probe count under its route ([witness], [ivm] or [eval]) and that
    count minus one under [cache_hit]; a leader with an empty [Q(base)]
    adds its count under [empty_before], and a base that does not lead
    its orbit under [orbit]. [monotone.orbit_bases] counts the bases
    that do not lead their orbit, profiled or not.

    When the query carries a maintenance function
    ({!Relational.Query.route} is [Ivm]), each group materializes
    [Q(base)] once and answers every probe with what the extension
    removes from it instead of re-evaluating on [base ∪ extension];
    [monotone.ivm_hits] counts those probes (the probes made, not the
    pairs counted). Verdicts and certificates
    equal those of the same query with its fast routes stripped, which
    the test wall pins. *)

val check_on_bases :
  ?fresh:int -> ?max_ext:int -> ?jobs:int -> Classes.kind -> Query.t ->
  Instance.t list -> outcome
(** Exhaustive extensions over user-supplied base instances — used when
    the interesting bases are known (e.g. the paper's counterexample
    constructions) and full enumeration would be too wide. Every base
    given is probed. *)

val ladder :
  ?fresh:int -> ?bases:Instance.t list -> ?bounds:bounds -> ?jobs:int ->
  Classes.kind -> max_i:int -> Query.t -> outcome list
(** The bounded profile [M¹ₖ, M²ₖ, ..., Mᵐᵃˣₖ] of a query (Figure 1's
    bounded ladders): element [i-1] checks the class with extensions of
    size at most [i], over the given bases ({!check_on_bases}) or
    exhaustively. By inclusion the outcomes are monotone: once violated at
    [i], violated for all [j ≥ i]. *)
