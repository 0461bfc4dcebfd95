(* Random Datalog¬ programs, shared by the property walls. Every atom is
   binary. A body has one to three positive atoms over edb {A, B} and
   idb {P, Q} and the variables x, y, z. The head (over P or Q), up to
   two negated atoms and at most one inequality draw only from the
   positive atoms' variables, so every rule is range-restricted by
   construction. Idb negation can make a program unstratifiable; the
   properties that need a stratified program skip those draws. *)

open Datalog

let var_atom p t1 t2 = Ast.atom p [ Ast.Var t1; Ast.Var t2 ]

(* [negatable] lists the predicates a negated atom may use; [[]] draws
   positive rules. *)
let rule ~negatable =
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
  let* ineq =
    list_size (int_range 0 1)
      (let* t1 = pvar in
       let* t2 = pvar in
       return (Ast.Var t1, Ast.Var t2))
  in
  return { Ast.head = var_atom hp h1 h2; pos; neg; ineq }

(* Between [lo] and [hi] rules. *)
let program ~negatable ~rules:(lo, hi) =
  QCheck2.Gen.(list_size (int_range lo hi) (rule ~negatable))
