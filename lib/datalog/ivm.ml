open Relational

(* Incremental view maintenance for stratified Datalog¬, insert-only.

   A handle caches the saturated model of a program over a given input,
   with Joindb indexes over it built once and shared across thousands of
   probes. The monotonicity classes quantify over extensions only, so
   the one question a handle answers is [lost]: which facts of the model
   does an insertion remove? Under inserts a fact can only go through a
   negated literal whose predicate grew, so [lost] propagates Δ only
   through the rules that feed a negation and looks for an old firing
   that a grown fact now blocks; only when it finds one does it saturate
   [given ∪ Δ]. The relations one [lost] call builds — the grown facts
   and each round's Δ — hold a handful of facts and are probed a few
   times each, so they are scanned, never indexed. *)

module Sset = Set.Make (String)

let m_applies = Observe.Metrics.counter "eval.ivm_applies"

type stratum = {
  rules : Ast.program;
  heads : Sset.t;
  body_preds : Sset.t;  (* positive and negated body predicates *)
  feeds : (string * Joindb.plan) list;
      (* One plan per (rule whose head feeds a negation, positive atom),
         keyed by the atom's predicate: the rule with that atom moved to
         the front, so [sem_add] probes a round's Δ first. These rules
         are the only ones [lost] propagates an insert through. *)
  seeds : (string * Joindb.plan) list;
      (* One plan per (rule, negated atom), keyed by the negated
         predicate: the rule with that atom moved to the front of its
         positive body, so [lost]'s seed check probes the grown facts
         first. *)
}

(* What depends on the program alone; immutable, so one value serves
   every base and every domain. *)
type compiled = {
  strata : stratum array;
  all_heads : Sset.t;
  last_neg : int;  (* last stratum with a negated literal; -1 if none *)
}

type t = {
  compiled : compiled;
  given : Instance.t;
  model : Instance.t;  (* the saturation of [given] *)
  db : Joindb.t;  (* indexes over [model], lazily built, reused *)
}

let current h = h.model

let probe_db db (ap : Joindb.atom_plan) key emit =
  List.iter emit
    (Joindb.probe db ap.pred ~arity:ap.arity ~positions:ap.key_positions key)

let scan facts ap key emit =
  List.iter (fun f -> if Joindb.matches ap key f then emit f) facts

(* ------------------------------------------------------------------ *)
(* Stratum compilation *)

let preds_of atoms s =
  List.fold_left (fun s (a : Ast.atom) -> Sset.add a.pred s) s atoms

(* A rule feeds a negation when its head predicate is negated somewhere,
   or is, transitively, a body predicate of such a rule. Every other
   derived fact is positive-only downstream, so an insert that grows it
   blocks no firing. *)
let feeding program =
  let rec close f =
    let f' =
      List.fold_left
        (fun f (r : Ast.rule) ->
          if Sset.mem r.head.pred f then preds_of r.neg (preds_of r.pos f)
          else f)
        f program
    in
    if Sset.equal f f' then f else close f'
  in
  close
    (List.fold_left (fun s (r : Ast.rule) -> preds_of r.neg s) Sset.empty
       program)

(* The plan of [r] with atom [a] moved to the front of its positive
   body, [pos] and [neg] being what remains; keyed by [a]'s predicate. *)
let first (r : Ast.rule) (a : Ast.atom) ~pos ~neg =
  (a.pred, Joindb.plan_rule { r with pos = a :: pos; neg })

let without j l = List.filteri (fun k _ -> k <> j) l

let seed_plans (r : Ast.rule) =
  List.mapi (fun j a -> first r a ~pos:r.pos ~neg:(without j r.neg)) r.neg

let delta_plans (r : Ast.rule) =
  List.mapi (fun j a -> first r a ~pos:(without j r.pos) ~neg:r.neg) r.pos

let make_stratum ~feeding rules =
  {
    rules;
    heads =
      List.fold_left
        (fun s (r : Ast.rule) -> Sset.add r.head.pred s)
        Sset.empty rules;
    body_preds =
      List.fold_left
        (fun s (r : Ast.rule) -> preds_of r.neg (preds_of r.pos s))
        Sset.empty rules;
    feeds =
      List.concat_map delta_plans
        (List.filter
           (fun (r : Ast.rule) -> Sset.mem r.head.pred feeding)
           rules);
    seeds = List.concat_map seed_plans rules;
  }

(* The stratified model: each stratum saturated over the ones below. *)
let saturate strata given =
  Array.fold_left (fun acc s -> Eval.seminaive s.rules acc) given strata

let compile program =
  match Stratify.stratify program with
  | Error e -> invalid_arg ("Ivm.compile: " ^ e)
  | Ok { strata = rule_strata; _ } ->
    let feeding = feeding program in
    let strata =
      Array.of_list (List.map (make_stratum ~feeding) rule_strata)
    in
    let last_neg = ref (-1) in
    Array.iteri (fun si s -> if s.seeds <> [] then last_neg := si) strata;
    {
      strata;
      all_heads =
        Array.fold_left (fun s st -> Sset.union s st.heads) Sset.empty strata;
      last_neg = !last_neg;
    }

let materialize compiled given =
  let model = saturate compiled.strata given in
  { compiled; given; model; db = Joindb.of_instance model }

(* ------------------------------------------------------------------ *)
(* Losses under insertion *)

(* What one [lost] call has grown the old model by so far: [grown] is
   the model plus [adds], and [preds] names their predicates. *)
type growth = {
  h : t;
  mutable grown : Instance.t;
  mutable adds : Fact.t list;
  mutable preds : Sset.t;
}

let preds_of_facts facts =
  List.fold_left (fun s f -> Sset.add (Fact.rel f) s) Sset.empty facts

let grow g facts =
  match facts with
  | [] -> ()
  | _ ->
    g.grown <- List.fold_left (fun m f -> Instance.add f m) g.grown facts;
    g.adds <- List.rev_append facts g.adds;
    g.preds <- Sset.union (preds_of_facts facts) g.preds

(* Insertion-only semi-naive through the Δ-first [feeds] of stratum [s],
   seeded with the additions its bodies read: each round runs the plans
   whose front predicate its Δ holds, the front atom over Δ and the rest
   over the model, the additions and every fact derived so far. Exact
   when no old firing of [s] is blocked by a grown negated atom, which
   [seeded] has ruled out. Returns the freshly derived head facts. *)
let sem_add g s =
  let seen = ref Instance.empty in
  let all_fresh = ref [] in
  let full ap key emit =
    probe_db g.h.db ap key emit;
    scan g.adds ap key emit;
    scan !all_fresh ap key emit
  in
  let rec rounds delta =
    match delta with
    | [] -> ()
    | _ ->
      let preds = preds_of_facts delta in
      let fresh = ref [] in
      List.iter
        (fun (pred, (pl : Joindb.plan)) ->
          if Sset.mem pred preds then
            Eval.iter_firings
              ~probe:(fun i ap key emit ->
                if i = 0 then scan delta ap key emit else full ap key emit)
              pl
              (fun env ->
                if Joindb.checks_pass g.grown Joindb.default_neg env pl.rule
                then begin
                  let f = Joindb.ground_atom env pl.rule.Ast.head in
                  if
                    (not (Instance.mem f g.grown))
                    && not (Instance.mem f !seen)
                  then begin
                    seen := Instance.add f !seen;
                    fresh := f :: !fresh
                  end
                end))
        s.feeds;
      all_fresh := List.rev_append !fresh !all_fresh;
      rounds !fresh
  in
  rounds (List.filter (fun f -> Sset.mem (Fact.rel f) s.body_preds) g.adds);
  !all_fresh

exception Seed

(* A seed of stratum [s]: a firing valid in the old model — positive
   atoms probed on the handle's indexes, inequalities and the other
   negations checked against [h.model] — whose negated atom is one of
   the grown facts. Without one every old firing still holds, so no
   fact of [s] is lost and [sem_add] stays exact for it. *)
let seeded g s =
  List.exists
    (fun (pred, (pl : Joindb.plan)) ->
      Sset.mem pred g.preds
      &&
      try
        Eval.iter_firings
          ~probe:(fun i ap key emit ->
            if i = 0 then scan g.adds ap key emit
            else probe_db g.h.db ap key emit)
          pl
          (fun env ->
            if Joindb.checks_pass g.h.model Joindb.default_neg env pl.rule
            then raise_notrace Seed);
        false
      with Seed -> true)
    s.seeds

(* The fallback: saturate [given ∪ adds] afresh, one [eval.ivm_applies]
   inside an [ivm.apply] span under profiling. *)
let what_if h adds =
  Observe.Profile.span "ivm.apply" @@ fun () ->
  Observe.Metrics.incr m_applies;
  saturate h.compiled.strata
    (List.fold_left (fun i f -> Instance.add f i) h.given adds)

let lost h facts =
  let c = h.compiled in
  if c.last_neg < 0 then Instance.empty
  else
    match List.filter (fun f -> not (Instance.mem f h.model)) facts with
    | [] -> Instance.empty
    | adds ->
      let g = { h; grown = h.model; adds = []; preds = Sset.empty } in
      grow g
        (List.filter (fun f -> not (Sset.mem (Fact.rel f) c.all_heads)) adds);
      (* Stratum by stratum up to the last negation: look for a seed
         against the growth of the strata below, then grow this one
         through its negation-feeding rules only. *)
      let rec any_seed si =
        si <= c.last_neg
        &&
        let s = c.strata.(si) in
        (seeded g s
        ||
        match s.feeds with
        | [] -> any_seed (si + 1)
        | _ :: _ ->
          grow g (List.filter (fun f -> Sset.mem (Fact.rel f) s.heads) adds);
          if not (Sset.disjoint s.body_preds g.preds) then
            grow g (sem_add g s);
          any_seed (si + 1))
      in
      if any_seed 0 then Instance.diff h.model (what_if h adds)
      else Instance.empty
