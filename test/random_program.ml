(* Random Datalog¬ programs, shared by the property walls. Every atom is
   binary. A body has one to three positive atoms over edb {A, B} and
   idb {P, Q} and the variables x, y, z. The head (over P or Q), up to
   two negated atoms and at most one inequality draw only from the
   positive atoms' variables, so every rule is range-restricted by
   construction. Idb negation can make a program unstratifiable; the
   properties that need a stratified program skip those draws.

   [~ineqs:(lo, hi)] draws between [lo] and [hi] inequalities per rule
   instead, each side a positive atom's variable or, one time in four, a
   constant 0–4; both sides may be the same variable ([x != x]). Without
   it the draws are the ones every earlier caller saw. *)

open Datalog

let var_atom p t1 t2 = Ast.atom p [ Ast.Var t1; Ast.Var t2 ]

(* [negatable] lists the predicates a negated atom may use; [[]] draws
   positive rules. *)
let rule ?ineqs ~negatable () =
  let open QCheck2.Gen in
  let vars = [ "x"; "y"; "z" ] in
  let* npos = int_range 1 3 in
  let* pos =
    list_size (return npos)
      (let* p = oneofl [ "A"; "B"; "P"; "Q" ] in
       let* t1 = oneofl vars in
       let* t2 = oneofl vars in
       return (var_atom p t1 t2))
  in
  let pvar = oneofl (List.concat_map Ast.vars_of_atom pos) in
  let* h1 = pvar in
  let* h2 = pvar in
  let* hp = oneofl [ "P"; "Q" ] in
  let* neg =
    match negatable with
    | [] -> return []
    | preds ->
      list_size (int_range 0 2)
        (let* p = oneofl preds in
         let* t1 = pvar in
         let* t2 = pvar in
         return (var_atom p t1 t2))
  in
  let var = map (fun v -> Ast.Var v) pvar in
  let (lo, hi), side =
    match ineqs with
    | None -> ((0, 1), var)
    | Some range ->
      let const n = Ast.Const (Relational.Value.Int n) in
      (range, frequency [ (3, var); (1, map const (int_range 0 4)) ])
  in
  let* ineq =
    list_size (int_range lo hi)
      (let* t1 = side in
       let* t2 = side in
       return (t1, t2))
  in
  return { Ast.head = var_atom hp h1 h2; pos; neg; ineq }

(* Between [lo] and [hi] rules. *)
let program ?ineqs ~negatable ~rules:(lo, hi) () =
  QCheck2.Gen.(list_size (int_range lo hi) (rule ?ineqs ~negatable ()))

(* A drawn program with every head predicate as an output.
   @raise Invalid_argument when it does not stratify. *)
let make rules =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.pred) rules)
  in
  Program.make ~outputs:heads rules
