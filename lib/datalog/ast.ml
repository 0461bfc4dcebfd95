open Relational

(* Source locations. Lines and columns are 1-based; a span covers
   [start, stop) with [stop] pointing one column past the last
   character. *)
module Span = struct
  type pos = { line : int; col : int }

  type t = { start : pos; stop : pos }

  let dummy = { start = { line = 0; col = 0 }; stop = { line = 0; col = 0 } }
  let is_dummy s = s.start.line = 0
  let make ~start ~stop = { start; stop }

  let union a b =
    if is_dummy a then b
    else if is_dummy b then a
    else
      let le p q = p.line < q.line || (p.line = q.line && p.col <= q.col) in
      {
        start = (if le a.start b.start then a.start else b.start);
        stop = (if le a.stop b.stop then b.stop else a.stop);
      }

  let pp ppf s =
    if is_dummy s then Format.pp_print_string ppf "<unknown>"
    else if s.start.line = s.stop.line then
      Format.fprintf ppf "%d:%d-%d" s.start.line s.start.col s.stop.col
    else
      Format.fprintf ppf "%d:%d-%d:%d" s.start.line s.start.col s.stop.line
        s.stop.col

  let to_string s = Format.asprintf "%a" pp s
end

type 'a located = { value : 'a; span : Span.t }

type var = string

type term =
  | Var of var
  | Const of Value.t

type atom = { pred : string; invents : bool; terms : term list }

type rule = {
  head : atom;
  pos : atom list;
  neg : atom list;
  ineq : (term * term) list;
}

type program = rule list

(* Located counterparts, produced by the parser for tooling (the lint
   engine and certificate renderers). [body] lists the literal spans in
   source order; the plain [rule] view drops all spans. *)
type located_literal =
  | Lpos of atom located
  | Lneg of atom located
  | Lineq of (term * term) located

type located_rule = {
  lhead : atom located;
  lbody : located_literal list;
  lspan : Span.t;  (** whole rule, head through final ['.'] *)
}

type located_program = located_rule list

let rule_of_located lr =
  let pos = List.filter_map (function Lpos a -> Some a.value | _ -> None) lr.lbody in
  let neg = List.filter_map (function Lneg a -> Some a.value | _ -> None) lr.lbody in
  let ineq =
    List.filter_map (function Lineq i -> Some i.value | _ -> None) lr.lbody
  in
  { head = lr.lhead.value; pos; neg; ineq }

let strip lp = List.map rule_of_located lp

(* Span of the [i]-th positive (resp. negative, inequality) literal of a
   located rule, counting in source order; {!Span.dummy} when out of
   range. The indices match the lists of {!rule_of_located}. *)
let nth_span filter lr i =
  let spans = List.filter_map filter lr.lbody in
  match List.nth_opt spans i with Some s -> s | None -> Span.dummy

let pos_span = nth_span (function Lpos a -> Some a.span | _ -> None)
let neg_span = nth_span (function Lneg a -> Some a.span | _ -> None)

let atom pred terms = { pred; invents = false; terms }
let invention_atom pred terms = { pred; invents = true; terms }
let atom_arity a = List.length a.terms + if a.invents then 1 else 0

let vars_of_term = function Var v -> [ v ] | Const _ -> []

let dedup vars =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vars

let vars_of_atom a = dedup (List.concat_map vars_of_term a.terms)

let vars_of_rule r =
  dedup
    (vars_of_atom r.head
    @ List.concat_map vars_of_atom r.pos
    @ List.concat_map vars_of_atom r.neg
    @ List.concat_map
        (fun (a, b) -> vars_of_term a @ vars_of_term b)
        r.ineq)

let check_rule r =
  let pos_vars = List.concat_map vars_of_atom r.pos in
  let covered v = List.mem v pos_vars in
  if r.pos = [] then Error "rule has an empty positive body"
  else if List.exists (fun a -> a.invents) r.pos then
    Error "invention atom in positive body"
  else if List.exists (fun a -> a.invents) r.neg then
    Error "invention atom in negative body"
  else
    match List.find_opt (fun v -> not (covered v)) (vars_of_rule r) with
    | Some v -> Error (Printf.sprintf "variable %s not bound by a positive atom" v)
    | None -> Ok ()

let rule ?(neg = []) ?(ineq = []) head pos =
  let r = { head; pos; neg; ineq } in
  match check_rule r with
  | Ok () -> r
  | Error msg -> invalid_arg ("Ast.rule: " ^ msg)

let rule_is_positive r = r.neg = []
let rule_has_ineq r = r.ineq <> []

let constants p =
  let of_term acc = function Const c -> Value.Set.add c acc | Var _ -> acc in
  let of_atom acc a = List.fold_left of_term acc a.terms in
  List.fold_left
    (fun acc r ->
      let acc = List.fold_left of_atom (of_atom acc r.head) (r.pos @ r.neg) in
      List.fold_left (fun acc (a, b) -> of_term (of_term acc a) b) acc r.ineq)
    Value.Set.empty p
  |> Value.Set.elements

let schema_of p =
  let add_atom sg a =
    let ar = atom_arity a in
    try Schema.add a.pred ar sg
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "Ast.schema_of: predicate %s used with arities %d and %d"
           a.pred
           (Schema.arity_exn sg a.pred)
           ar)
  in
  List.fold_left
    (fun sg r -> List.fold_left add_atom sg ((r.head :: r.pos) @ r.neg))
    Schema.empty p

let arity_conflicts lp =
  let first = Hashtbl.create 16 in
  let visit acc (a : atom located) =
    let ar = atom_arity a.value in
    match Hashtbl.find_opt first a.value.pred with
    | None ->
      Hashtbl.replace first a.value.pred (ar, a.span);
      acc
    | Some (ar0, span0) ->
      if ar = ar0 then acc
      else
        let message =
          Printf.sprintf "predicate %s used with arity %d, previously %d"
            a.value.pred ar ar0
        in
        (a.span, message, (ar0, span0)) :: acc
  in
  List.fold_left
    (fun acc lr ->
      List.fold_left
        (fun acc -> function Lpos a | Lneg a -> visit acc a | Lineq _ -> acc)
        (visit acc lr.lhead) lr.lbody)
    [] lp
  |> List.rev

let idb p =
  let sg = schema_of p in
  let heads = List.map (fun r -> r.head.pred) p in
  Schema.restrict sg heads

let edb p = Schema.diff (schema_of p) (idb p)

let preds_of_rule r =
  List.map (fun a -> a.pred) ((r.head :: r.pos) @ r.neg)
  |> List.sort_uniq String.compare

let equal_term a b =
  match a, b with
  | Var x, Var y -> String.equal x y
  | Const x, Const y -> Value.equal x y
  | _ -> false

let equal_atom a b =
  String.equal a.pred b.pred
  && Bool.equal a.invents b.invents
  && List.equal equal_term a.terms b.terms

let equal_rule a b =
  equal_atom a.head b.head
  && List.equal equal_atom a.pos b.pos
  && List.equal equal_atom a.neg b.neg
  && List.equal
       (fun (x, y) (x', y') -> equal_term x x' && equal_term y y')
       a.ineq b.ineq

let equal_program a b =
  let mem r p = List.exists (equal_rule r) p in
  List.for_all (fun r -> mem r b) a && List.for_all (fun r -> mem r a) b

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const (Value.Sym s) -> Format.fprintf ppf "%S" s
  | Const c -> Value.pp ppf c

let pp_atom ppf a =
  let slots =
    (if a.invents then [ fun ppf () -> Format.pp_print_string ppf "*" ] else [])
    @ List.map (fun t ppf () -> pp_term ppf t) a.terms
  in
  Format.fprintf ppf "%s(%a)" a.pred
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf f -> f ppf ()))
    slots

let pp_rule ppf r =
  let body =
    List.map (fun a ppf () -> pp_atom ppf a) r.pos
    @ List.map (fun a ppf () -> Format.fprintf ppf "not %a" pp_atom a) r.neg
    @ List.map
        (fun (x, y) ppf () -> Format.fprintf ppf "%a != %a" pp_term x pp_term y)
        r.ineq
  in
  Format.fprintf ppf "%a :- %a." pp_atom r.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf f -> f ppf ()))
    body

let pp_program ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@.")
    pp_rule ppf p

let to_string p = Format.asprintf "%a" pp_program p
