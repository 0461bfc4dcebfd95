open Relational

type kind =
  | Plain
  | Distinct
  | Disjoint

let kind_to_string = function
  | Plain -> "M"
  | Distinct -> "Mdistinct"
  | Disjoint -> "Mdisjoint"

(* M ⊆ Mdistinct ⊆ Mdisjoint: the Plain condition quantifies over the most
   extensions, Disjoint over the fewest. *)
let strength = function Plain -> 2 | Distinct -> 1 | Disjoint -> 0
let weaker a b = strength a <= strength b

let admissible kind ~base ~extension =
  match kind with
  | Plain -> true
  | Distinct -> Instance.is_domain_distinct_from extension base
  | Disjoint -> Instance.is_domain_disjoint_from extension base

type violation = {
  kind : kind;
  bound : int option;
  base : Instance.t;
  extension : Instance.t;
  missing : Fact.t;
}

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<v>%s%s violated:@ I = %a@ J = %a@ %a in Q(I) but not in Q(I u J)@]"
    (kind_to_string v.kind)
    (match v.bound with None -> "" | Some i -> Printf.sprintf "^%d" i)
    Instance.pp v.base Instance.pp v.extension Fact.pp v.missing

(* Probe admissible extensions of one base against a precomputed
   [before = Q(base)]. [Query.stage] answers each probe with the least
   fact of [before] outside [Q(base ∪ extension)] — the head of
   [diff before after] — so the certificate is the one the seed's
   diff-based probe produced, whether the query answers through a
   witness, an IVM handle, or by evaluating. Probes consume
   {!Query.delta}s; the extension instance is only forced when a
   violation is actually reported. *)
let stage ~before kind q ~base =
  let probe = Query.stage q ~base ~expected:before in
  fun (d : Query.delta) ->
    match probe d with
    | None -> None
    | Some missing ->
      Some
        {
          kind;
          bound = Some (List.length d.Query.facts);
          base;
          extension = Query.delta_instance d;
          missing;
        }

let check_pair kind q ~base ~extension =
  if not (admissible kind ~base ~extension) then None
  else
    let before = Query.apply q base in
    (* Monotone in the trivial direction: an empty [before] cannot lose
       facts, so no extension violates — skip the second evaluation. *)
    if Instance.is_empty before then None
    else stage ~before kind q ~base (Query.delta_of_instance extension)
