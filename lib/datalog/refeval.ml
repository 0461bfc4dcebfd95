open Relational

(* The seed tree's nested-loop engine, preserved verbatim as a reference
   semantics. The production engine ({!Eval}) is tested against it on
   the query zoo and on random programs. It keeps the seed's per-round
   predicate index and per-candidate [match_atom] rescan — the very
   pattern the indexed engine replaces — and records no metrics, so
   reference runs leave the [eval.*] counters untouched. *)

module Env = Joindb.Env
module Smap = Map.Make (String)

let index i =
  Instance.fold
    (fun f m ->
      Smap.update (Fact.rel f)
        (function None -> Some [ f ] | Some l -> Some (f :: l))
        m)
    i Smap.empty

let lookup idx pred = match Smap.find_opt pred idx with Some l -> l | None -> []

let match_term env term value =
  match (term : Ast.term) with
  | Const c -> if Value.equal c value then Some env else None
  | Var v -> (
    match Env.find_opt v env with
    | Some w -> if Value.equal w value then Some env else None
    | None -> Some (Env.add v value env))

let match_atom env (a : Ast.atom) (f : Fact.t) =
  if Fact.rel f <> a.pred || Fact.arity f <> List.length a.terms then None
  else
    let rec go env i = function
      | [] -> Some env
      | t :: rest -> (
        match match_term env t (Fact.arg f i) with
        | None -> None
        | Some env -> go env (i + 1) rest)
    in
    go env 0 a.terms

let rec satisfy_pos db_idx delta_idx which i atoms env k =
  match atoms with
  | [] -> k env
  | (a : Ast.atom) :: rest ->
    let source = if Some i = which then delta_idx else db_idx in
    List.iter
      (fun f ->
        match match_atom env a f with
        | None -> ()
        | Some env' -> satisfy_pos db_idx delta_idx which (i + 1) rest env' k)
      (lookup source a.pred)

(* Inequalities on the complete valuation, as the seed tested them —
   independently of where a {!Joindb} plan places them. *)
let ineqs_pass env (r : Ast.rule) =
  List.for_all
    (fun (x, y) ->
      not (Value.equal (Joindb.term_value env x) (Joindb.term_value env y)))
    r.ineq

let derive_rule ~neg ~current ~db_idx ~delta_idx ~which (r : Ast.rule) acc =
  let out = ref acc in
  satisfy_pos db_idx delta_idx which 0 r.pos Env.empty (fun env ->
      if ineqs_pass env r && Joindb.checks_pass current neg env r then
        out := Instance.add (Joindb.ground_atom env r.head) !out);
  !out

let derive ?(neg = Joindb.default_neg) p j =
  let idx = index j in
  List.fold_left
    (fun acc r ->
      derive_rule ~neg ~current:j ~db_idx:idx ~delta_idx:Smap.empty ~which:None
        r acc)
    Instance.empty p

let guard max_facts j =
  match max_facts with
  | Some budget when Instance.cardinal j > budget -> raise Eval.Diverged
  | _ -> ()

let naive ?neg ?max_facts p i =
  let rec go j =
    guard max_facts j;
    let j' = Instance.union j (derive ?neg p j) in
    if Instance.equal j' j then j else go j'
  in
  go i

let seminaive ?(neg = Joindb.default_neg) ?max_facts p i =
  let step db delta =
    let db_idx = index db and delta_idx = index delta in
    List.fold_left
      (fun acc (r : Ast.rule) ->
        let n = List.length r.pos in
        let rec over_idx which acc =
          if which = n then acc
          else
            over_idx (which + 1)
              (derive_rule ~neg ~current:db ~db_idx ~delta_idx
                 ~which:(Some which) r acc)
        in
        over_idx 0 acc)
      Instance.empty p
  in
  let first = derive ~neg p i in
  let rec go db delta =
    guard max_facts db;
    if Instance.is_empty delta then db
    else
      let db' = Instance.union db delta in
      let fresh = Instance.diff (step db' delta) db' in
      go db' fresh
  in
  go i (Instance.diff first i)

let stratified ?max_facts p i =
  match Stratify.stratify p with
  | Error e -> Error e
  | Ok { strata; _ } ->
    Ok
      (List.fold_left
         (fun acc stratum -> seminaive ?max_facts stratum acc)
         i strata)
