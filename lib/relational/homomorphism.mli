(** Homomorphisms between instances and permutations of the domain
    (Sections 2 and 3.2 of the paper). *)

type mapping = Value.t Value.Map.t
(** A finite function on domain values. Values outside its support are
    treated as fixed points by {!apply_value}. *)

val apply_value : mapping -> Value.t -> Value.t
val apply_fact : mapping -> Fact.t -> Fact.t
val apply : mapping -> Instance.t -> Instance.t

val is_homomorphism : mapping -> Instance.t -> Instance.t -> bool
(** [is_homomorphism h i j] checks that [h] is defined on all of [adom i]
    and maps every fact of [i] to a fact of [j]. *)

val is_injective : mapping -> bool

val find : Instance.t -> Instance.t -> mapping option
(** Backtracking search for a homomorphism from the first instance into the
    second. Exponential in the worst case; intended for the small instances
    used in class checking. *)

val find_injective : Instance.t -> Instance.t -> mapping option

val exists : Instance.t -> Instance.t -> bool
val exists_injective : Instance.t -> Instance.t -> bool

val permutations_of : Value.Set.t -> mapping list
(** All permutations of the given (small!) value set, as mappings. Used for
    genericity testing: a query [Q] is generic iff [Q(π I) = π (Q I)] for
    all permutations [π] of [dom]. *)

val random_permutation :
  ?avoid:Value.Set.t -> seed:int -> Value.Set.t -> mapping
(** A pseudo-random permutation of the given set (deterministic in the
    seed), extended with fresh images so it behaves like a permutation of
    [dom] moving the set off itself half of the time. The fresh images
    avoid [avoid] (default empty) as well as the set. *)
