open Relational

(* The shared join substrate of both evaluation engines.

   A [Joindb.t] is a per-predicate view of an instance whose indexes are
   built lazily, one per (arity, bound-position set) actually probed: an
   atom with k determinate terms (constants or already-bound variables)
   is answered by hashing those k values instead of scanning every fact
   of the predicate. Which positions are determinate is a static property
   of the rule — it depends only on the atoms preceding the probe, never
   on the data — so it is computed once per rule as a [plan] and the
   index for a position set is shared by every probe of the fixpoint.

   This module holds the seed's [index]/[term_value]/[ground_atom]
   machinery once; [Eval] drives the probe loop depth-first and [Ivm]
   drives it from a delta atom outward. *)

module Env = Map.Make (String)
module Smap = Map.Make (String)

let default_neg j f = not (Instance.mem f j)

(* ------------------------------------------------------------------ *)
(* Storage *)

module Key = struct
  type t = Value.t list

  let equal = List.equal Value.equal

  let hash k =
    List.fold_left (fun acc v -> (acc * 486187739) + Value.hash v) 17 k
end

module Ktbl = Hashtbl.Make (Key)

type rel = {
  facts : Fact.t list;
  mutable indexes : ((int * int list) * Fact.t Ktbl.t) list;
      (* keyed by (arity, key positions); a handful per predicate, so an
         association list beats a nested hash table. *)
}

type t = rel Smap.t

let empty : t = Smap.empty

let of_instance i : t =
  Instance.fold
    (fun f m ->
      Smap.update (Fact.rel f)
        (function
          | None -> Some { facts = [ f ]; indexes = [] }
          | Some r -> Some { r with facts = f :: r.facts })
        m)
    i Smap.empty

let index_for r ~arity ~positions =
  match List.assoc_opt (arity, positions) r.indexes with
  | Some idx -> idx
  | None ->
    let idx = Ktbl.create 64 in
    List.iter
      (fun f ->
        if Fact.arity f = arity then
          Ktbl.add idx (List.map (Fact.arg f) positions) f)
      r.facts;
    r.indexes <- ((arity, positions), idx) :: r.indexes;
    idx

let probe (db : t) pred ~arity ~positions key =
  match Smap.find_opt pred db with
  | None -> []
  | Some r -> Ktbl.find_all (index_for r ~arity ~positions) key

(* ------------------------------------------------------------------ *)
(* Terms and grounding *)

let term_value env = function
  | Ast.Const c -> c
  | Ast.Var v -> (
    match Env.find_opt v env with
    | Some c -> c
    | None -> invalid_arg "Joindb: unbound variable in a checked position")

let skolem_functor pred = "f_" ^ pred

(* Invention heads R(⋆, ū) ground to R(f_R(v̄), v̄): the Skolemization of
   Section 5.2, with the functor applied to the remaining head
   arguments. *)
let ground_atom env (a : Ast.atom) =
  let args = List.map (term_value env) a.terms in
  if a.invents then
    Fact.make a.pred (Value.Skolem (skolem_functor a.pred, args) :: args)
  else Fact.make a.pred args

let ineq_holds env (x, y) =
  not (Value.equal (term_value env x) (term_value env y))

(* Inequalities are tested earlier, by [extend] at the atom that binds
   them; only the negations wait for a complete valuation. *)
let checks_pass current neg env (r : Ast.rule) =
  List.for_all (fun a -> neg current (ground_atom env a)) r.neg

(* ------------------------------------------------------------------ *)
(* Rule plans *)

(* How to process one candidate fact after the index probe: keyed
   positions already matched by hashing, so only the free positions
   remain — bind first occurrences, check repeats. *)
type slot =
  | Bind of int * string
  | Check of int * string

type atom_plan = {
  pred : string;
  arity : int;
  key_positions : int list;
  key_terms : Ast.term list;  (* aligned with [key_positions] *)
  slots : slot list;
  ineqs : (Ast.term * Ast.term) list;
      (* the rule's inequalities whose sides this atom's bindings
         complete *)
}

type plan = {
  rule : Ast.rule;
  atoms : atom_plan array;
}

let plan_atom bound (a : Ast.atom) =
  let keyed = ref [] and slots = ref [] and fresh = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Ast.Const _ -> keyed := (i, t) :: !keyed
      | Ast.Var v ->
        if List.mem v bound then keyed := (i, t) :: !keyed
        else if List.mem v !fresh then slots := Check (i, v) :: !slots
        else begin
          fresh := v :: !fresh;
          slots := Bind (i, v) :: !slots
        end)
    a.terms;
  let keyed = List.rev !keyed in
  ( {
      pred = a.pred;
      arity = List.length a.terms;
      key_positions = List.map fst keyed;
      key_terms = List.map snd keyed;
      slots = List.rev !slots;
      ineqs = [];
    },
    !fresh )

(* Each inequality is tested at the first atom after which both of its
   sides are bound (a constant is bound from the start), so a valuation
   that breaks it is cut before the atoms that follow are probed. Only
   an unsafe rule ({!Ast.check_rule}) has one that no atom binds. *)
let plan_rule (r : Ast.rule) =
  let is_bound bound = function
    | Ast.Const _ -> true
    | Ast.Var v -> List.mem v bound
  in
  let atoms, _, rest =
    List.fold_left
      (fun (acc, bound, pending) a ->
        let ap, fresh = plan_atom bound a in
        let bound = fresh @ bound in
        let now, pending =
          List.partition
            (fun (x, y) -> is_bound bound x && is_bound bound y)
            pending
        in
        ({ ap with ineqs = now } :: acc, bound, pending))
      ([], [], r.ineq) r.pos
  in
  if rest <> [] then
    invalid_arg "Joindb.plan_rule: an inequality over an unbound variable";
  { rule = r; atoms = Array.of_list (List.rev atoms) }

let plan_program p = List.map plan_rule p

let key_of_env env ap = List.map (term_value env) ap.key_terms

let matches ap key f =
  String.equal (Fact.rel f) ap.pred
  && Fact.arity f = ap.arity
  && List.for_all2
       (fun i v -> Value.equal (Fact.arg f i) v)
       ap.key_positions key

(* ------------------------------------------------------------------ *)
(* EXPLAIN: pretty-print a compiled plan. One line per body atom showing
   the access path the probe loop will take — which positions are hashed
   (and under which terms), which free positions bind, and which repeats
   are equality-checked after the probe. *)

let pp_term_str t = Format.asprintf "%a" Ast.pp_term t

let pp_slot ppf = function
  | Bind (i, v) -> Format.fprintf ppf "bind %s@@%d" v i
  | Check (i, v) -> Format.fprintf ppf "check %s@@%d" v i

let pp_atom_plan ppf ap =
  (match ap.key_positions with
  | [] -> Format.fprintf ppf "%s/%d via full scan" ap.pred ap.arity
  | ps ->
    Format.fprintf ppf "%s/%d via index(%s) key=<%s>" ap.pred ap.arity
      (String.concat "," (List.map string_of_int ps))
      (String.concat "," (List.map pp_term_str ap.key_terms)));
  (match ap.slots with
  | [] -> Format.fprintf ppf ", fully keyed"
  | slots ->
    Format.fprintf ppf ", %s"
      (String.concat ", "
         (List.map (fun s -> Format.asprintf "%a" pp_slot s) slots)));
  List.iter
    (fun (x, y) ->
      Format.fprintf ppf ", filter %s != %s" (pp_term_str x) (pp_term_str y))
    ap.ineqs

let extend env ap f =
  let rec go env = function
    | [] ->
      if List.for_all (ineq_holds env) ap.ineqs then Some env else None
    | Bind (i, v) :: rest -> go (Env.add v (Fact.arg f i) env) rest
    | Check (i, v) :: rest ->
      if Value.equal (Fact.arg f i) (Env.find v env) then go env rest
      else None
  in
  go env ap.slots
