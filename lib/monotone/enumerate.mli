(** Bounded enumeration of instances and admissible extensions.

    Class membership is undecidable in general (paper, Section 7); the
    checkers explore all instances up to a size/domain bound. Genericity of
    queries means the choice of concrete domain values is irrelevant, so a
    fixed value pool loses no generality at a given size.

    The scan's extensions of one base are the nonempty subsets of at most
    [max_ext] facts of its {!candidates}, walked by {!subsets_until}: an
    index recursion over one sorted array, with no lazy stream between
    the enumeration and the probe. The order is {!subsets_up_to}'s: size
    first, then lexicographic in the candidate indices, each subset's
    facts ascending. So the first violation in pair order, and with it
    the certificate, is fixed by the bounds alone.

    The exhaustive scan probes one base per orbit. Queries are generic
    (Section 2) under the permutations of the value pool that fix the
    query's constants ({!Relational.Query.field-constants}); such a
    permutation [π] fixes the fresh values, so it maps an admissible
    pair [(I, J)] to an admissible pair [(π I, π J)], with [π J] among
    [π I]'s candidates, and [(I, J)] violates exactly when its image
    does. Call a base the {e leader} of its orbit when none of its
    images comes before it in {!instances}' order ({!is_leader}). The
    base of the first violating pair is a leader: an earlier image
    would hold an earlier violating pair. So a scan that probes only
    the leaders' extensions finds the same first violation, and the
    same certificate, as one that probes every base. A non-leader is
    not assumed clean from its leader's verdict: its pairs are counted,
    [subsets_count] of its own candidates, as the pairs of a base whose
    [Q(base)] is empty are. Every count a scan reports is therefore the
    count of the unreduced scan. *)

open Relational

val value_pool : int -> Value.t list
(** [n] canonical base-instance values ([Int 1 .. Int n]).
    @raise Invalid_argument if [n] is negative. *)

val fresh_pool : int -> Value.t list
(** [n] values guaranteed disjoint from every {!value_pool}.
    @raise Invalid_argument if [n] is negative. *)

val subsets_up_to : 'a list -> int -> 'a list Seq.t
(** All subsets of size [<= k], smallest first, then in lexicographic
    order of their positions in the list; each subset keeps the list's
    order. The empty subset comes first. *)

val subsets_until : 'a array -> int -> ('a list -> bool) -> int
(** [subsets_until items k stop] hands [stop] the nonempty subsets of
    [items] with at most [k] elements, in {!subsets_up_to}'s order, until
    [stop] answers [true]. Returns how many it handed over, the stopping
    one included: {!subsets_count}[ n k] when [stop] never answers
    [true]. Nothing is allocated per subset but its list. *)

val subsets_count : int -> int -> int
(** [subsets_count n k] is [Σ C(n, s)] over [1 <= s <= min k n]: the
    number of nonempty subsets of at most [k] out of [n] items. The scan
    counts a group whose [Q(base)] is empty with it instead of walking
    the group. *)

val instances :
  Schema.t -> dom:Value.t list -> max_facts:int -> Instance.t Seq.t
(** All instances over the schema using only the given values, with at most
    [max_facts] facts. *)

val is_leader : movable:Value.Set.t -> Instance.t -> bool
(** [is_leader ~movable base]: no permutation of [movable] (fixing every
    other value) maps [base] to an instance that {!instances} lists
    before it, i.e. to a smaller one under {!Relational.Instance.compare}
    (images keep the base's size). The search tries the injections of
    the base's own movable values into [movable], so it is cheap for
    small bases over a wide pool; every base is a leader when [movable]
    is empty. *)

val candidates :
  Classes.kind ->
  base:Instance.t ->
  schema:Schema.t ->
  fresh:Value.t list ->
  Fact.t array
(** The facts an admissible extension of [base] is built from, ascending
    by {!Relational.Fact.compare}: the facts over [adom base ∪ fresh]
    ([fresh] only, for [Disjoint]) outside the base, and, for
    [Distinct], with a value outside [adom base]. Every nonempty subset
    of them is an admissible extension for the kind, and every
    admissible extension disjoint from the base is one. *)

val candidate_count :
  Classes.kind -> base:Instance.t -> schema:Schema.t -> fresh:Value.t list ->
  int
(** [Array.length (candidates kind ~base ~schema ~fresh)], counted
    without building the facts: the scan counts a base it does not walk
    with [subsets_count (candidate_count ...) max_ext]. *)
