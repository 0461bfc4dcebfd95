(** Metrics registry: counters, gauges, and histograms keyed by
    name + labels, with a strict stable/volatile split.

    The paper's constructive results are operational — Theorems 4.3/4.4/4.5
    are claims about how many messages, rounds, and heartbeats a
    coordination-free strategy spends — so the semantic counters of a run
    are first-class outputs, not debug noise. Two requirements shape this
    module:

    {ol
    {- {b Determinism under [?jobs].} Every {e stable} metric must have
       byte-identical values whether the work ran sequentially or fanned
       out on the {!Parallel.Pool}. Work units executed on the pool record
       into per-task collectors which the pool merges back {e in input
       order} (and, for cancelled searches, only up to the winning index),
       so stable aggregates cannot observe scheduling. Wall-clock
       timings are the one schedule-dependent kind: only {!Profile}'s
       spans record them, through {!time}, the one clock read; they are
       {e volatile} and excluded from stable snapshots and equality.
       Counters, gauges and histograms are always stable.}
    {- {b Zero plumbing on hot paths.} Instrumented code records into an
       ambient per-domain collector ({!with_current}); handles are
       interned once at module initialization, so a hit on a hot path is a
       lock, two or three field updates, and an unlock.}} *)

type kind = Counter | Gauge | Histogram | Timing

type t
(** A collector: a set of cells, one per registered metric. *)

type handle
(** An interned (name, labels, kind) triple, shared by all collectors. *)

(** {1 Registering metrics} *)

val counter : ?labels:(string * string) list -> string -> handle
(** Monotonically increasing integer total. *)

val gauge : ?labels:(string * string) list -> string -> handle
(** Last-written value. *)

val histogram : ?labels:(string * string) list -> string -> handle
(** Distribution: count, sum, min, max, plus a log-bucketed value
    histogram supporting {!quantile} readout. Buckets are HDR-style —
    base-2 octaves split into equal mantissa sub-buckets — so a value's
    bucket depends on the value alone: the same observations produce the
    same buckets in any order, and merging per-task buffers is exact
    per-bucket count addition, keeping p50/p90/p99 readouts of stable
    histograms byte-identical across [jobs]. *)

val timing : ?labels:(string * string) list -> string -> handle
(** A histogram of durations in seconds; always volatile. *)

(** {1 Recording (into the ambient collector)} *)

val incr : ?by:int -> handle -> unit
val set : handle -> float -> unit
val observe : handle -> float -> unit

val time : handle -> (unit -> 'a) -> 'a
(** Run the thunk, record its wall-clock duration in seconds, and
    re-raise whatever it raises (the duration is recorded either way).
    This is the one clock read of the library and the CLI, and
    {!Profile}'s spans are its one caller. *)

(** {1 Collectors} *)

val root : t
(** The process-wide default collector. Every domain's ambient collector
    starts as [root]; the CLI snapshots it as a [--record] directory's
    [metrics.json]. *)

val create : unit -> t

val current : unit -> t
(** This domain's ambient collector. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient collector rebound (restored on exit,
    also on exceptions). This is what the pool uses to give each task its
    own buffer. *)

val silenced : (unit -> 'a) -> 'a
(** Run the thunk with a throwaway ambient collector: everything it
    records is discarded. Used by the model checker, whose inner
    what-if simulation must not pollute the network counters. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s cells into [dst]: counters and
    histograms add (count, sum), widen (min, max), and add per-bucket
    counts; a gauge written in [src] overwrites the one in [dst].
    Merging per-task buffers in input order therefore reproduces exactly
    the sequential recording order. *)

val reset : t -> unit

(** {1 Snapshots} *)

type row = {
  name : string;
  labels : (string * string) list;  (** sorted by label key *)
  kind : kind;
  stable : bool;    (** every kind but {!Timing} *)
  count : int;      (** counter total, or number of observations *)
  sum : float;
  vmin : float;     (** [nan] when count = 0 *)
  vmax : float;
  last : float;     (** gauges: the last written value *)
  buckets : (int * int) list;
      (** log-bucket key -> observation count, sorted by key (which is
          value order); empty for counters and gauges *)
}

val quantile : row -> float -> float
(** Nearest-rank quantile from the bucket counts: the representative
    value (zero-side edge) of the bucket holding the [ceil (p * n)]-th
    observation. [nan] when the row has no buckets. *)

val bucket_of_value : float -> int
(** The log-bucket key of a finite value: 0 for zero, sign-mirrored
    monotone integer keys otherwise. Exposed for the determinism wall. *)

val bucket_value : int -> float
(** The representative of a bucket key: its edge closest to zero.
    [bucket_of_value (bucket_value k) = k] for every key produced by
    {!bucket_of_value}. *)

val snapshot : ?stable_only:bool -> t -> row list
(** Rows with at least one recording, sorted by (name, labels); with
    [stable_only] (default [false]) volatile rows are dropped. *)

val render_stable : t -> string
(** Canonical one-line-per-row text of the stable rows — the string the
    determinism wall compares byte-for-byte across [jobs] 1/2/4. *)

val to_json : t -> Json.t
(** [{ "schema": "calm-metrics/v1", "metrics": [...], "volatile": [...] }];
    the [metrics] section holds the stable rows, [volatile] the
    timings. *)

val pp_profile :
  ?redact_timings:bool -> Format.formatter -> t -> unit
(** Human profile tables: stable metrics, then timings. With
    [redact_timings] every duration is replaced by ["-"], so the output
    is byte-identical across [jobs] (used by the golden fixtures). *)

val kind_to_string : kind -> string
