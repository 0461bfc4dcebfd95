(** Database schemas: finite maps from relation names to arities.

    All arities are at least 1 (the paper excludes nullary relations,
    Section 2; the consequences of lifting this are discussed in its
    Section 7). *)

type t

val empty : t

val of_list : (string * int) list -> t
(** @raise Invalid_argument on a non-positive arity or on two bindings of
    the same name with different arities. *)

val add : string -> int -> t -> t
(** @raise Invalid_argument as for {!of_list}. *)

val arity : t -> string -> int option
val arity_exn : t -> string -> int
val mem : t -> string -> bool
val relations : t -> (string * int) list
val names : t -> string list

val union : t -> t -> t
(** @raise Invalid_argument if a shared name has conflicting arities. *)

val disjoint_union : t -> t -> t
(** @raise Invalid_argument if the name sets intersect at all. *)

val diff : t -> t -> t
(** Relations of the first schema not named in the second. *)

val restrict : t -> string list -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val disjoint : t -> t -> bool

val fact_over : t -> Fact.t -> bool
(** Is the fact over this schema (name present with matching arity)? *)

val all_facts : t -> Value.Set.t -> Fact.t list
(** Every fact over the schema whose values are drawn from the given set.
    Exponential in arity; used for small-domain enumeration and for the
    [policy_R] system relations. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
