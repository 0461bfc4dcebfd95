(** Trajectory reporting: aggregate the committed bench history
    ([BENCH_*.json]) plus optional metrics / series / profile artifacts
    into a self-contained HTML dashboard, a markdown summary, and a
    whole-history regression diff over the guarded metric rows.

    Everything is hand-rolled on {!Json}: no external dependencies, and
    the dashboard's sparklines are inline SVG, so the output is a single
    file that renders offline. *)

val guard_metrics : string list
(** The stable metric rows guarded against drift — deterministic by
    construction (jobs- and cache-invariant). *)

type experiment = {
  id : string;
  wall_s : float;
  metrics : (string * Json.t) list;
}

type bench = {
  path : string;
  quick : bool;
  jobs : int;
  experiments : experiment list;
}

val load_bench : path:string -> string -> (bench, string) result
(** Parse and schema-validate one [calm-bench/v1] artifact. Rejects
    non-finite [wall_s] values (e.g. a crafted ["1e999"], which parses
    to infinity) with a clear error instead of reporting on them. *)

(** {1 Regression diff} *)

type regression = {
  from_file : string;
  to_file : string;
  experiment : string;
  metric : string;  (** a {!guard_metrics} name *)
  before : string;
  after : string;
}

val diff : bench list -> regression list * int
(** Scan consecutive pairs of the chronologically ordered history. A
    guard metric row of the older file regresses when the newer file
    lacks it, its experiment included ([after] is ["<missing>"]), or
    holds a different value; rows newly appearing are instrumentation
    growth, not drift. Wall clocks are not compared, and neither is the
    [bechamel] experiment, whose counters follow timer-chosen iteration
    counts. Returns the regressions and the number of guarded rows of
    older files compared. *)

val render_diff : regression list -> int -> string
(** Human-readable (markdown-table) rendering of a {!diff} result. *)

(** {1 Renderers} *)

val markdown : bench list -> string
(** Markdown summary: per-file inventory, wall-clock trajectory table,
    guarded metric values of the latest file. *)

val html :
  ?series:string -> ?metrics:Json.t -> ?profile:Json.t -> bench list -> string
(** The dashboard. [series] is the raw [calm-series/v1] JSONL contents
    (each series becomes a sparkline row); [metrics] / [profile] are
    parsed artifact documents included verbatim as pretty-printed
    sections. *)
