(** Policy-aware transducer schemas (Section 4.1.2).

    [Υ = (Υin, Υout, Υmsg, Υmem, Υsys)] with pairwise disjoint relation
    names, where the system schema is determined by the input schema:
    [Υsys = {Id/1, All/1, MyAdom/1} ∪ {policy_R/k | R/k ∈ Υin}]. *)

open Relational

type t = private {
  input : Schema.t;
  output : Schema.t;
  message : Schema.t;
  memory : Schema.t;
  system : Schema.t;
}

(** ["Id"] *)
val id_rel : string

(** ["All"] *)
val all_rel : string

(** ["MyAdom"] *)
val myadom_rel : string

val policy_rel : string -> string
(** [policy_rel "E" = "policy_E"]. *)

val system_schema : Schema.t -> Schema.t
(** The [Υsys] induced by an input schema. *)

val make :
  input:Schema.t -> output:Schema.t -> ?message:Schema.t ->
  ?memory:Schema.t -> unit -> t
(** @raise Invalid_argument when any two component schemas (including the
    induced system schema) share a relation name. *)
