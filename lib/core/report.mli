(** Plain-text table rendering for the benchmark harness: the experiment
    tables printed by [bench/main.exe] in the shape of the paper's
    figures. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val add_note : t -> string -> unit

val render : t -> string
(** Column-aligned ASCII table with title, rows, and trailing notes. *)

val print : t -> unit

val cell_bool : bool -> string
(** "yes" / "no". *)

val cell_member : bool -> string
(** "in" / "NOT in" — membership cells of the hierarchy tables. *)
