(** The coordinated fallback strategy: computes {e any} query on a
    network, at the price of a global barrier.

    Every node broadcasts its local input facts tagged with its
    identifier (plus a [BHere] presence marker), acknowledges everything
    it has seen, and — once a peer [y] has acknowledged its marker and
    every one of its local facts — certifies [BDone(x, y)]: "y holds all
    of x's input". A node outputs [Q] over its collected facts only
    after receiving such a certificate from {e every} other node, so by
    then its collection equals the global input and the output is exact
    for arbitrary (non-monotone) queries.

    Message buffers are not FIFO, which is why the certificate must
    causally follow acknowledgements rather than just the sends: a
    "done" flag sent right after the facts could overtake them. The
    three-step fact/ack/done handshake forces every output event's
    causal cone to contain a transition of every node — the
    heard-from-all-nodes cut that {!Network.Provenance.coordinated} flags,
    making this strategy the empirically-coordinated complement of the
    coordination-free ones.

    Requires [Id] and [All] but no policy relations: the original model
    of Ameloot et al. ({!Network.Config.original}). *)

open Relational

val fact_prefix : string     (* "BFact_" *)
val ack_prefix : string      (* "BAck_" *)
val here_rel : string        (* "BHere" *)
val ack_here_rel : string    (* "BAckHere" *)
val done_rel : string        (* "BDone" *)

val transducer : Query.t -> Network.Transducer.t
