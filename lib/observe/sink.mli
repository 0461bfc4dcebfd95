(** Structured event sink with a Chrome [trace_event] exporter.

    A sink collects timestamped spans from any domain ({!to_chrome} also
    renders instants that callers build); each domain tags its events
    with an ambient {e track} name (the pool labels its workers
    [worker-1..n-1]), so a Chrome [trace_event] export shows the pool's
    workers as separate tracks in Perfetto / [chrome://tracing].

    The process-wide {!default} sink starts {e disabled} and costs one
    branch per event while disabled; the CLI enables it under
    [--record], which writes the events to the record's [trace.json]. *)

type t

type event = {
  ts : float;  (** seconds since the sink was created/enabled *)
  dur : float option;  (** [Some seconds] for spans, [None] for instants *)
  track : string;  (** e.g. ["main"], ["worker-3"] *)
  cat : string;  (** subsystem: ["net"], ["pool"], ["eval"], ... *)
  name : string;
  args : (string * Json.t) list;
}

val create : unit -> t
(** A fresh, enabled sink with its clock zeroed at the call. *)

val default : t
(** The process-wide sink; starts disabled. *)

val enable : t -> unit
(** Clear the sink, re-zero its clock, start recording. *)

val disable : t -> unit
val is_enabled : t -> bool

val set_track : string -> unit
(** Set this domain's ambient track name (default ["main"]). *)

val span :
  ?sink:t ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk and record a span covering it (recorded even when the
    thunk raises). When the sink is disabled, just runs the thunk. *)

val events : t -> event list
(** In chronological (recording) order. *)

(** {1 Chrome export} *)

val chrome_tid : tracks:string list -> string -> int
(** The [tid] of a track in a document over [tracks]: track [i] of
    [tracks] is [tid] [i+1] (an unknown track gets [1]). *)

val chrome_document : tracks:string list -> Json.t list -> string
(** The one Chrome [trace_event] envelope: each track of [tracks] gets
    its {!chrome_tid}, named by [thread_name] metadata, and the body
    events follow the metadata in a [traceEvents] array with
    ["displayTimeUnit":"ms"]. Body events stamp their own [tid] with
    {!chrome_tid}. {!to_chrome} and [Network.Trace.to_chrome_causal] both
    render through it. *)

val to_chrome : event list -> string
(** A Chrome [trace_event] JSON document: spans as ["ph":"X"] complete
    events and instants as ["ph":"i"], microsecond timestamps, one [tid]
    per track (["main"] first), loadable in Perfetto. *)
