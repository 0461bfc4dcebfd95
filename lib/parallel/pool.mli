(** A hand-rolled fork-join Domain work pool.

    A pool owns [jobs - 1] worker domains parked on a condition
    variable; the calling domain participates in every parallel region,
    so a [jobs = 1] pool spawns nothing and both combinators run
    sequentially on the calling domain. Built from [Domain], [Mutex], and
    [Condition] only.

    {!search} is the one fan-out path, and {!map} is {!search} over the
    indexed elements with a probe that never hits. Both are
    {e deterministic}: their observable behaviour (results, and which
    exception propagates) is independent of [jobs] and of scheduling,
    which is what lets the checker and the sweep driver expose a
    [?jobs] knob without perturbing verdicts or certificates.

    The same guarantee extends to telemetry: every task runs with its own
    {!Observe.Metrics} buffer, and the pool merges the buffers back into
    the caller's ambient collector in input order, up to the winning
    index of a search, so {e stable} metrics recorded inside tasks are
    byte-identical across [jobs]. The pool records no metric of its own;
    it tags each worker's {!Observe.Sink} events with a [worker-i] track
    and wraps each member's share of a region in a [pool.region] span. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns a pool of [jobs] members (default
    {!default_jobs}; clamped to at least 1): [jobs - 1] worker domains
    plus the calling domain. It runs [f] on the pool, then stops and
    joins the workers, also on exceptions. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map, equivalent to [List.map f xs] —
    including on raising [f]: the exception raised by the {e first}
    raising element in input order is re-raised (and the pool survives
    for further use). Task buffers commit like [List.map]'s recordings:
    up to and including the first raising element, none after it. *)

type 'b outcome =
  | Found of 'b        (** first hit in enumeration order *)
  | Exhausted of int   (** no hit; the number of elements probed *)

val search : t -> ('a -> 'b option) -> 'a Seq.t -> 'b outcome
(** Counterexample search with cancellation: probes the sequence's
    elements concurrently, but returns exactly what a sequential
    left-to-right scan would — the first hit in enumeration order (an
    exception raised by [f] or by forcing the sequence propagates iff it
    enumerates before any hit), or [Exhausted n] after all [n] elements
    miss. Once a hit at index [i] is recorded, no element beyond [i] is
    issued, so the remaining workers drain promptly. The sequence is
    forced under the pool's lock, one element at a time, in order. *)
