(** Fact multisets.

    Message buffers of transducer networks are multisets (Section 4.1.3):
    the same message can be in flight several times simultaneously. *)

type t

val empty : t
val is_empty : t -> bool

val size : t -> int
(** Total number of copies. *)

val support : t -> Fact.Set.t
(** The multiset "collapsed to a set" (the paper's [M]). *)

val count : Fact.t -> t -> int
val mem : Fact.t -> t -> bool
val add : ?copies:int -> Fact.t -> t -> t
val of_list : Fact.t list -> t
val of_instance : Instance.t -> t

val union : t -> t -> t
(** Multiset union: multiplicities add. The two maps are merged
    ([Fact.Map.union]), not rebuilt one copy at a time. *)

val diff : t -> t -> t
(** Multiset difference: multiplicities subtract, truncated at zero. A
    walk of the second multiset, editing the first: O(|b| log |a|). *)

val remove_one : Fact.t -> t -> t
(** Removes a single copy; identity if absent. *)

val sub : t -> t -> bool
(** Submultiset test. *)

val fold : (Fact.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Fact.t list
(** Each fact repeated by its multiplicity, in {!Fact.compare} order. *)

val nth : t -> int -> Fact.t
(** [nth b k = List.nth (to_list b) k], found by walking the cumulative
    multiplicities: no copy is materialised.
    @raise Invalid_argument unless [0 <= k < size b]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
