type level =
  | Monotone
  | Domain_distinct
  | Domain_disjoint
  | Beyond

let levels = [ Monotone; Domain_distinct; Domain_disjoint; Beyond ]

let to_string = function
  | Monotone -> "monotone"
  | Domain_distinct -> "domain-distinct-monotone"
  | Domain_disjoint -> "domain-disjoint-monotone"
  | Beyond -> "beyond-Mdisjoint"

let monotonicity_class = function
  | Monotone -> "M"
  | Domain_distinct -> "Mdistinct"
  | Domain_disjoint -> "Mdisjoint"
  | Beyond -> "C"

let transducer_model = function
  | Monotone -> "original"
  | Domain_distinct -> "policy-aware"
  | Domain_disjoint -> "domain-guided"
  | Beyond -> "none (coordination required)"

let datalog_fragment = function
  | Monotone -> "Datalog(!=)"
  | Domain_distinct -> "SP-Datalog"
  | Domain_disjoint -> "semicon-Datalog^neg"
  | Beyond -> "Datalog^neg"

let rank = function
  | Monotone -> 0
  | Domain_distinct -> 1
  | Domain_disjoint -> 2
  | Beyond -> 3

let leq a b = rank a <= rank b

let of_fragment (f : Datalog.Fragment.t) =
  match f with
  | Datalog.Fragment.Positive | Datalog.Fragment.Positive_ineq -> Monotone
  | Datalog.Fragment.Semi_positive -> Domain_distinct
  | Datalog.Fragment.Connected_stratified
  | Datalog.Fragment.Semi_connected_stratified -> Domain_disjoint
  | Datalog.Fragment.Stratified | Datalog.Fragment.Unstratifiable -> Beyond

(* Plain, then distinct, then disjoint: the first class that holds is the
   strongest (see the interface), so the weaker scans never run. *)
let place_empirically ?bounds ?jobs q =
  let holds kind =
    not
      (Monotone.Checker.is_violation
         (Monotone.Checker.check_exhaustive ?bounds ?jobs kind q))
  in
  if holds Monotone.Classes.Plain then Monotone
  else if holds Monotone.Classes.Distinct then Domain_distinct
  else if holds Monotone.Classes.Disjoint then Domain_disjoint
  else Beyond

type source =
  | Syntactic of Datalog.Fragment.t
  | Bounded of Monotone.Checker.bounds
  | Given

let pp_placement ppf (level, source) =
  Format.fprintf ppf "placement: %s (" (to_string level);
  (match source with
  | Syntactic f ->
    Format.fprintf ppf "syntactic: %s" (Datalog.Fragment.to_string f)
  | Bounded { Monotone.Checker.dom_size; fresh; max_base; max_ext } ->
    Format.fprintf ppf "bounded: dom %d, fresh %d, base %d, ext %d" dom_size
      fresh max_base max_ext
  | Given -> Format.pp_print_string ppf "given");
  Format.pp_print_char ppf ')'
