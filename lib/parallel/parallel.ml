(** Multicore substrate: a hand-rolled fork-join Domain pool with a
    deterministic first-in-enumeration-order counterexample search and
    an order-preserving parallel map built on it. Every consumer in the
    checker and the sweep driver is property-tested to agree
    verdict-for-verdict with a sequential scan. *)

module Pool = Pool
