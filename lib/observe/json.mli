(** A minimal JSON tree, printer, and parser.

    The telemetry layer emits machine-readable artifacts (metrics
    snapshots, JSONL event streams, Chrome [trace_event] files, bench
    trajectories) and the test wall parses them back; keeping the codec
    in-tree avoids a dependency and pins the exact syntax the exporters
    guarantee. Numbers are split into [Int] and [Float] so counters
    survive a round-trip without a [1 -> 1.0] drift. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with RFC 8259 string escaping.
    Strings are treated as byte sequences: every byte outside printable
    ASCII (controls, DEL, and bytes ≥ 0x80) is escaped as [\u00XX], so
    the output is pure ASCII and survives strings holding arbitrary raw
    bytes. [Float] values render via ["%.17g"] (shortest round-trippable
    form is not attempted); [nan] and infinities render as [null]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for humans. *)

val of_string : string -> (t, string) result
(** Parses a single JSON value (surrounding whitespace allowed). Numbers
    without [.], [e], or [E] parse as [Int]. [\uXXXX] escapes below
    0x100 decode to the single byte — the inverse of {!to_string}'s
    byte-oriented escaping, so print/parse is the identity on arbitrary
    byte strings; higher BMP code points decode as UTF-8. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val equal : t -> t -> bool
