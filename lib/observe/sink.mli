(** The Chrome [trace_event] envelope.

    A trace is a list of {!event}s that the caller builds: the profiler's
    span tree ({!Profile.to_chrome_events}), a network run's causal
    trace ([Network.Trace.to_chrome_causal]) or a benchmark's own spans.
    This module only renders them: one [tid] per track, named by
    [thread_name] metadata, loadable in Perfetto / [chrome://tracing].
    It keeps no state and reads no clock. *)

type event = {
  ts : float;  (** seconds from the document's origin *)
  dur : float option;  (** [Some seconds] for spans, [None] for instants *)
  track : string;  (** e.g. ["profile"], ["node 1"] *)
  cat : string;  (** subsystem: ["profile"], ["op"], ... *)
  name : string;
  args : (string * Json.t) list;
}

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
    per track (tracks in name order), in the order given. *)
