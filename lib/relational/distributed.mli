(** Distributed database instances (Section 4.1.1).

    A network is a nonempty finite set of domain values ("nodes"); a
    distributed instance maps each node to a local instance, possibly with
    replication. *)

type network = Value.t list
(** Nonempty, sorted, duplicate-free list of node identifiers. *)

val network_of_ints : int list -> network
val network_of_names : string list -> network

val validate_network : network -> network
(** Sorts, deduplicates. @raise Invalid_argument if empty. *)

type t

val create : network -> t
(** Every node mapped to the empty instance. *)

val network : t -> network
val local : t -> Value.t -> Instance.t
(** @raise Invalid_argument if the node is not in the network. *)

val set_local : t -> Value.t -> Instance.t -> t
val update_local : t -> Value.t -> (Instance.t -> Instance.t) -> t

val global : t -> Instance.t
(** Union of all local instances. *)

val of_assignment : network -> (Value.t * Instance.t) list -> t
val nodes : t -> Value.t list
