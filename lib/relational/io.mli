(** Plain-text instance I/O: one fact per line in [R(a,b)] syntax, blank
    lines and [%]-comments ignored (also accepts '.'-terminated facts). *)

val parse_facts : string -> Instance.t
(** Parses fact-file content. @raise Invalid_argument on malformed
    facts. *)

val print_facts : Instance.t -> string
(** One fact per line, sorted; inverse of {!parse_facts}. *)
