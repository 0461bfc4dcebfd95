(** The paper's Figure 2 — its summary of results — as data.

    Each claim records the relationship, who proved it (the paper, or the
    prior work it builds on), and which of this repository's experiments
    (EXPERIMENTS.md / bench targets) exercises it. Used by the bench
    harness to print the reproduced figure and by the test suite to keep
    the experiment index consistent. *)

type relation =
  | Equal
  | Strictly_included   (** lhs ⊊ rhs *)
  | Included            (** lhs ⊆ rhs (strictness not claimed) *)

type claim = {
  lhs : string;
  relation : relation;
  rhs : string;
  provenance : string;   (** "this paper", "[13]", "[18]", "[32]", "folklore" *)
  evidence : string list;  (** experiment ids, e.g. ["E7"; "E9"] *)
}

val claims : claim list
val relation_to_string : relation -> string

val render : unit -> string
(** The figure as an aligned table. *)
