(** Bounded time-series recorder: how a run evolves, not just its
    totals.

    {!Metrics} answers "how much, in total" — this module records the
    trajectory: one {e point} per (series, labels, tick), where the tick
    is a semantic coordinate of the run (stabilization round, BFS depth,
    base ordinal), never a wall clock, and the value is a count, never
    a duration (durations are {!Profile} spans). So every series is
    stable: a deterministic function of the run. Three constraints
    shape it:

    {ol
    {- {b One atomic load when off.} Like {!Profile}, recording is gated
       on a global flag; instrumented hot paths pay a single
       [Atomic.get] when the recorder is disabled.}
    {- {b Determinism under [?jobs].} Points are keyed by tick, work
       units on the {!Parallel.Pool} record into per-task buffers
       ({!task_buffer}: unbounded, so they keep every raw point), and
       the pool replays those buffers into the caller's recorder in
       input order — so every series is byte-identical across job
       counts, exactly like stable metrics.}
    {- {b Bounded memory.} Each series keeps at most [capacity] points.
       On overflow the stride doubles and only points with
       [tick mod stride = 0] survive (deterministic 2:1 downsampling).
       The keep-set depends on the tick alone, so downsampling commutes
       with merging — the property the test wall pins.}} *)

(** {1 Gate} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** {1 Recorders} *)

type t

val default_capacity : int
(** 512 points per (series, labels) key. *)

val create : ?capacity:int -> unit -> t

val root : t
(** The process-wide default recorder; the CLI exports it as a
    [--record] directory's [series.jsonl]. *)

val current : unit -> t
val with_current : t -> (unit -> 'a) -> 'a

val task_buffer : unit -> t
(** An unbounded recorder for one pool task: it never downsamples, so
    {!merge_into} can replay its raw points and reproduce exactly the
    sequential arrival sequence (stride decisions included). *)

(** {1 Recording} *)

val sample :
  ?labels:(string * string) list -> string -> tick:int -> float -> unit
(** Record one point of the ambient recorder's series at an explicit
    tick. Sampling the same tick again overwrites (last write wins), so
    work that restarts its ticks (one scan after another) labels its
    samples apart. No-op when the recorder is disabled. *)

val with_label : string * string -> (unit -> 'a) -> 'a
(** Scope an extra label onto every sample recorded inside (e.g. the
    sweep labels each cell, keeping parallel cells' series distinct). *)

(** {1 Merging and downsampling} *)

val merge_into : t -> t -> unit
(** Replay [src]'s points into [dst]: keys in sorted order, points in
    arrival order, strides aligned upward first. Replaying input-ordered
    task buffers reproduces the sequential recording. *)

val downsample : t -> unit
(** Double every series' stride and drop the points the new stride
    excludes — the same step overflow triggers; exposed for the
    commutation property test. *)

val reset : t -> unit

(** {1 Snapshots and exporters} *)

type point = { tick : int; value : float }

type row = {
  name : string;
  labels : (string * string) list;  (** sorted by label key *)
  stride : int;
  points : point list;  (** arrival order *)
}

val rows : t -> row list
(** Non-empty series sorted by (name, labels). *)

val render_stable : t -> string
(** Canonical one-line-per-series text of every row — compared
    byte-for-byte across [jobs] by the determinism wall. *)

val to_jsonl : t -> string
(** The [calm-series/v1] JSONL export: a [{"schema":"calm-series/v1"}]
    header line, then one JSON object per series with
    [series]/[labels]/[stable]/[stride]/[points] ([[tick, value]]
    pairs); [stable] is always [true]. Validated by
    {!Schema_check.validate_series_jsonl}. *)
