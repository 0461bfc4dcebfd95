(** Facts [R(d1, ..., dk)].

    A fact pairs a relation name with a non-empty tuple of values (the paper
    restricts attention to relations of arity at least one, Section 2). *)

type t = private { rel : string; args : Value.t array }

val make : string -> Value.t list -> t
(** @raise Invalid_argument on an empty argument list. *)

val make_array : string -> Value.t array -> t
(** Like {!make} but takes ownership of the array (it is copied). *)

val rel : t -> string
val args : t -> Value.t list
val arity : t -> int
val arg : t -> int -> Value.t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val adom : t -> Value.Set.t
(** Set of values occurring in the fact. *)

val map_values : (Value.t -> Value.t) -> t -> t

val is_invented : t -> bool
(** [true] iff some argument contains a Skolem term. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Parses ["R(a, 1, b)"] with a program's constant syntax: an argument
    that is one double-quoted string (["\"a b\""], no ['"'] inside)
    reads as that symbol. @raise Invalid_argument on syntax errors,
    among them a parenthesis inside an argument (["E(1,2)))"]), an
    unbalanced quote (["E(1,\"a)"]) and text after the closing
    parenthesis (["E(1,2) E(2,3)"], a missing ['.']). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
