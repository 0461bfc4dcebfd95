open Relational

type outcome =
  | Output of Instance.t
  | Divergent

let invention_relations p =
  List.filter_map
    (fun (r : Ast.rule) -> if r.head.invents then Some r.head.pred else None)
    p
  |> List.sort_uniq String.compare

let validate p =
  let inventing = invention_relations p in
  let bad =
    List.find_opt
      (fun (r : Ast.rule) ->
        (not r.head.invents) && List.mem r.head.pred inventing)
      p
  in
  match bad with
  | Some r ->
    Error
      (Printf.sprintf
         "relation %s occurs in heads both with and without the invention slot"
         r.head.pred)
  | None -> Ok ()

(* Head positions (1-based, invention slot included) holding a given
   variable. *)
let head_positions_of_var (head : Ast.atom) v =
  let offset = if head.invents then 1 else 0 in
  List.mapi (fun i t -> (i + 1 + offset, t)) head.terms
  |> List.filter_map (fun (j, t) ->
         match t with Ast.Var w when w = v -> Some j | _ -> None)

let unsafe_positions p =
  let module PS = Set.Make (struct
    type t = string * int

    let compare = Stdlib.compare
  end) in
  let seed =
    List.fold_left
      (fun s rel -> PS.add (rel, 1) s)
      PS.empty (invention_relations p)
  in
  let step s =
    List.fold_left
      (fun s (r : Ast.rule) ->
        List.fold_left
          (fun s (a : Ast.atom) ->
            List.fold_left
              (fun s (i, t) ->
                match t with
                | Ast.Const _ -> s
                | Ast.Var v ->
                  if PS.mem (a.pred, i) s then
                    List.fold_left
                      (fun s j -> PS.add (r.head.pred, j) s)
                      s
                      (head_positions_of_var r.head v)
                  else s)
              s
              (List.mapi (fun i t -> (i + 1, t)) a.terms))
          s r.pos)
      s p
  in
  let rec fix s =
    let s' = step s in
    if PS.equal s s' then s else fix s'
  in
  PS.elements (fix seed)

let is_weakly_safe ~outputs p =
  let unsafe = unsafe_positions p in
  not (List.exists (fun (rel, _) -> List.mem rel outputs) unsafe)

let is_safe_output i = not (Instance.exists Fact.is_invented i)
let is_sp_wilog p = Fragment.is_semi_positive p
let is_semi_connected_wilog p = Connectivity.is_semi_connected p

let eval ?(max_facts = 50_000) p i =
  match validate p with
  | Error e -> Error e
  | Ok () -> (
    match Eval.stratified ~max_facts p i with
    | Error e -> Error e
    | Ok out -> Ok (Output out)
    | exception Eval.Diverged -> Ok Divergent)

let eval_output ?max_facts ~outputs p i =
  match eval ?max_facts p i with
  | Error e -> Error e
  | Ok Divergent -> Error "ILOG evaluation diverged (output undefined)"
  | Ok (Output out) -> Ok (Instance.restrict_rels out outputs)

let query ?max_facts ~name ~outputs p =
  let p = Adom.augment p in
  match validate p with
  | Error e -> Error e
  | Ok () ->
    if not (Stratify.is_stratifiable p) then
      Error "not syntactically stratifiable"
    else if not (is_weakly_safe ~outputs p) then
      Error "output relations have unsafe (invention-tainted) positions"
    else
      let idb = Ast.idb p in
      match List.find_opt (fun o -> not (Schema.mem idb o)) outputs with
      | Some o -> Error ("output relation " ^ o ^ " is not derived")
      | None ->
        let input = Ast.edb p in
        let output = Schema.restrict idb outputs in
        Ok
          (Query.make ~constants:(Ast.constants p) ~name ~input ~output
             (fun i ->
               match eval_output ?max_facts ~outputs p i with
               | Ok out -> out
               | Error e -> invalid_arg ("Ilog.query: " ^ e)))
