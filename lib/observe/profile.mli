(** Hierarchical wall-time attribution on top of the {!Metrics} registry.

    The scan's hot loops already record {e what} happened (probes, cache
    hits, derived facts); this module records {e where the time went}: a
    tree of named spans (scan → base → qbase/stage → fixpoint → rule, or
    net.run → fixpoint → rule) with per-span visit counts, annotation
    counters (each scan base tallies its probes by route, cache hit,
    empty [Q(base)] or orbit once), and wall-clock timings. Spans are the one
    timer: every timed interval is a span, so a run with the profiler off
    records no timing.

    Three properties shape the design:

    {ol
    {- {b Zero cost when off.} Profiling is gated by one global flag;
       every instrumentation site is a single atomic load plus a closure
       call while disabled, so the engines stay un-profiled by default
       and the bench baselines are unaffected.}
    {- {b It is just metrics.} A span records into the ambient
       {!Metrics} collector under the reserved names [profile.span]
       (stable visit counter), [profile.annot] (stable annotation
       counter) and [profile.time] (volatile timing), with the span path
       as a label. Pool tasks therefore buffer and merge spans exactly
       like any other metric — in input order, only up to a cancelled
       search's winning index — so the {e stable} projection of a
       profile (paths, counts, annotations) is byte-identical across
       [--jobs 1/2/4] while timings stay volatile. Each path's handles,
       and each (path, annotation) handle, are interned on the first
       visit in a per-domain trie, so a later visit registers
       nothing.}
    {- {b Rooted paths across domains.} A span opened inside a pool task
       must aggregate with its sequential twin even though the worker
       domain never saw the enclosing spans. Instrumentation sites that
       run on workers use {!span_rooted} with an absolute path;
       {!span} nests under the ambient per-domain path.}} *)

(** {1 Enabling} *)

val enable : unit -> unit
val disable : unit -> unit

val is_enabled : unit -> bool
(** One atomic load: the gate every instrumentation site checks. *)

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk under a span named [name], nested under this domain's
    ambient span path. Counts one visit and records the wall-clock
    duration (re-raising whatever the thunk raises). Frame names are
    sanitized: ['/'], [';'], spaces, and newlines become ['_'] so paths
    split unambiguously. A no-op wrapper while disabled. *)

val span_rooted : string list -> (unit -> 'a) -> 'a
(** Like {!span} but with an absolute path, ignoring the ambient prefix.
    Use this at sites that execute on pool worker domains, so the span
    aggregates with the identical path recorded on a sequential run. *)

val annot : ?by:int -> string -> unit
(** Increment a stable annotation counter attached to the innermost
    ambient span (e.g. ["cache_hit"], ["witness"]). *)

(** {1 Reconstruction} *)

type node = {
  path : string list;  (** root-to-node frame names *)
  count : int;  (** visits; 0 for synthesized intermediate nodes *)
  annots : (string * int) list;  (** sorted by key *)
  total_s : float;  (** schedule-dependent: wall-clock inside the span *)
  self_s : float;  (** [total_s] minus the children's totals, clamped at 0 *)
  children : node list;  (** sorted by frame name *)
}

val spans : Metrics.t -> node list
(** The span forest recorded in a collector, rebuilt from its
    [profile.*] metric rows; roots sorted by frame name. *)

val flatten : node list -> node list
(** Pre-order flattening of a forest. *)

val coverage : node -> float
(** Fraction of a span's wall time attributed to its direct children
    (1.0 when the span recorded no measurable time). *)

(** {1 Exporters} *)

val render_stable : Metrics.t -> string
(** Canonical one-line-per-span text of the stable profile fields —
    paths, visit counts, annotations; no timings — the string the
    jobs-invariance wall compares byte-for-byte. *)

val to_json : Metrics.t -> Json.t
(** The [calm-profile/v1] document: [{ "schema": "calm-profile/v1",
    "spans": [{path; count; annots; total_s; self_s}] }] in pre-order.
    Validated by {!Schema_check.validate_profile}. *)

val folded_of_spans : (string list * int) list -> string
(** Folded-stack lines ["frame;frame;frame value\n"] — the input format
    of flamegraph tooling. Frames are emitted as given; the {!span}
    sanitization already guarantees they contain no [';'] or spaces. *)

val of_folded : string -> ((string list * int) list, string) result
(** Parse folded-stack lines back (blank lines skipped); rejects empty
    frames, missing or non-integer values, and negative values. The
    round-trip inverse of {!folded_of_spans} — pinned by qcheck. *)

val to_folded : Metrics.t -> string
(** The recorded span tree as folded stacks, one line per span, valued
    by self-time in integer microseconds. *)

val to_chrome_events : Metrics.t -> Sink.event list
(** Synthesize one {!Sink} span event per node — children laid out
    sequentially inside their parent on a single ["profile"] track — so
    {!Sink.to_chrome} renders the attribution tree as a flame chart in
    Perfetto / [chrome://tracing]. Every child's interval lies inside its
    parent's: children whose totals sum past their parent's drawn width
    (a span run on several pool domains sums their times) are scaled
    down to fit. *)

val pp : ?redact_timings:bool -> Format.formatter -> Metrics.t -> unit
(** Human span tree: one line per node with count, total, self, and the
    share of the enclosing root's time. With [redact_timings] every
    schedule-dependent number is replaced by ["-"] so the output is
    byte-reproducible (used by the golden fixture). *)
