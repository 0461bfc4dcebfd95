(* Random Datalog¬ programs, shared by the property walls. Every atom is
   binary. A body has one to three positive atoms over edb {A, B} and
   idb {P, Q} and the variables x, y, z. The head (over P or Q), up to
   two negated atoms and at most one inequality draw only from the
   positive atoms' variables, so every rule is range-restricted by
   construction. Idb negation can make a program unstratifiable; the
   properties that need a stratified program skip those draws.

   [~ineqs:(lo, hi)] draws between [lo] and [hi] inequalities per rule
   instead, each side a positive atom's variable or, one time in four, a
   constant 0–4; both sides may be the same variable ([x != x]).
   [~consts:true] likewise makes each argument of an atom (positive,
   negated or head) a constant 0–4 one time in four; when no positive
   argument is a variable, the other arguments are constants too.
   Without these the draws are the ones every earlier caller saw. *)

open Datalog

(* [negatable] lists the predicates a negated atom may use; [[]] draws
   positive rules. *)
let rule ?ineqs ?(consts = false) ~negatable () =
  let open QCheck2.Gen in
  let const =
    map (fun n -> Ast.Const (Relational.Value.Int n)) (int_range 0 4)
  in
  let arg term = if consts then frequency [ (3, term); (1, const) ] else term in
  let atom preds term =
    let* p = oneofl preds in
    let* t1 = arg term in
    let* t2 = arg term in
    return (Ast.atom p [ t1; t2 ])
  in
  let* npos = int_range 1 3 in
  let* pos =
    list_size (return npos)
      (atom [ "A"; "B"; "P"; "Q" ]
         (map (fun v -> Ast.Var v) (oneofl [ "x"; "y"; "z" ])))
  in
  let var =
    match List.concat_map Ast.vars_of_atom pos with
    | [] -> const
    | vs -> map (fun v -> Ast.Var v) (oneofl vs)
  in
  let* h1 = arg var in
  let* h2 = arg var in
  let* hp = oneofl [ "P"; "Q" ] in
  let* neg =
    match negatable with
    | [] -> return []
    | preds -> list_size (int_range 0 2) (atom preds var)
  in
  let (lo, hi), side =
    match ineqs with
    | None -> ((0, 1), var)
    | Some range -> (range, frequency [ (3, var); (1, const) ])
  in
  let* ineq =
    list_size (int_range lo hi)
      (let* t1 = side in
       let* t2 = side in
       return (t1, t2))
  in
  return { Ast.head = Ast.atom hp [ h1; h2 ]; pos; neg; ineq }

(* Between [lo] and [hi] rules. *)
let program ?ineqs ?consts ~negatable ~rules:(lo, hi) () =
  QCheck2.Gen.(list_size (int_range lo hi) (rule ?ineqs ?consts ~negatable ()))

(* A drawn program with every head predicate as an output.
   @raise Invalid_argument when it does not stratify. *)
let make rules =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.pred) rules)
  in
  Program.make ~outputs:heads rules
