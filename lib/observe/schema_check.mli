(** Structural validators for the JSON artifacts the telemetry layer
    emits. CI runs these (via [calm validate]) against the bench
    trajectory file and the [--metrics-out] snapshot before uploading
    them, so a malformed exporter fails the build instead of silently
    polluting the trajectory. *)

val validate_metrics : Json.t -> (unit, string) result
(** The [--metrics-out] document: [schema = "calm-metrics/v1"], a
    [metrics] array of stable rows and a [volatile] array, every row with
    [name]/[labels]/[kind]/[count]/[sum]/[min]/[max]/[last] of the right
    types and a known [kind]. *)

val validate_bench : Json.t -> (unit, string) result
(** The [bench --json] document: [schema = "calm-bench/v1"], [quick] and
    [jobs] fields, and a non-empty [experiments] array whose entries
    carry a unique [id], a non-negative [wall_s], and a [metrics]
    object. *)

val validate_profile : Json.t -> (unit, string) result
(** The [--profile-out] / [calm profile] document:
    [schema = "calm-profile/v1"] and a [spans] array whose entries carry
    a non-empty ['/']-separated [path] with no empty frames, a
    non-negative [count], an [annots] object of non-negative ints, and
    non-negative [total_s]/[self_s] with [self_s <= total_s]. *)

val validate_trace : Json.t -> (unit, string) result
(** A Chrome [trace_event] document: a [traceEvents] array whose entries
    all have [ph]/[pid]/[tid], with [name]/[ts] on non-metadata events. *)

val validate_causal : Json.t -> (unit, string) result
(** The [--causal-out] document: [schema = "calm-causal/v1"], a
    non-empty [network] array of node names, and an [events] array whose
    entries carry a positive [index], a [node], a positive [lamport]
    clock, a non-empty [vector] object of positive ints, [origins] as
    [[fact, send index]] pairs, and [delivered]/[sent]/[output_delta]
    fact arrays. *)

val validate_series_jsonl : string -> (unit, string) result
(** The [--series-out] JSONL document: a [{"schema":"calm-series/v1"}]
    header line, then one object per series with a non-empty [series]
    name, string [labels], a [stable] bool, a [stride >= 1], and
    [points] as [[tick, value]] pairs. *)
