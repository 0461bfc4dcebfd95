open Relational

(* Incremental view maintenance for stratified Datalog¬.

   A handle caches the saturated model of a program over a given input
   plus enough support state to maintain it under change: per-fact
   derivation counts for non-recursive strata (the counting algorithm),
   DRed over-delete/re-derive for recursive strata where counting is
   unsound. Insertion-only deltas run semi-naive rounds seeded only with
   Δ against the handle's Joindb indexes (built once, shared across
   thousands of probes); retractions take the counting-decrement or DRed
   route; strata whose negated predicates are touched by the change fall
   back to a per-stratum recomputation (counted in [eval.ivm_rederived]),
   never a whole-program one.

   The scan's hot path is [lost]: which facts of the model does an
   insertion remove? Under inserts a fact can only go through a negated
   literal whose predicate grew, so [lost] propagates Δ only through the
   rules that feed a negation and looks for an old firing that a grown
   fact now blocks; only when it finds one does it build the model of
   [given ∪ Δ]. *)

module Sset = Set.Make (String)

module Ftbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

let m_applies = Observe.Metrics.counter "eval.ivm_applies"
let m_rederived = Observe.Metrics.counter "eval.ivm_rederived"

type stratum = {
  rules : Ast.program;
  plans : Joindb.plan list;
  heads : Sset.t;
  heads_list : string list;
  body_preds : Sset.t;  (* positive and negated body predicates *)
  neg_preds : Sset.t;
  recursive : bool;  (* some body mentions a stratum head *)
  feeds : Joindb.plan list;
      (* Plans of the rules whose head feeds a negation: the only rules
         [lost] propagates an insert through. *)
  seeds : (string * Joindb.plan) list;
      (* One plan per (rule, negated atom), keyed by the negated
         predicate: the rule with that atom moved to the front of its
         positive body, so [lost]'s seed check probes the grown facts
         first. *)
  mutable derived : Instance.t;
      (* Head-predicate facts of the stratum's model. Invariant: contains
         every derivable head fact; may over-approximate with given idb
         facts until [counts] is forced (harmless: presence is
         [given ∪ derived] and those facts are given). Exact whenever
         [counts] is [Some _]. *)
  mutable counts : int Ftbl.t option;
      (* Derivation counts, non-recursive strata only, built lazily on
         the first retraction that needs them. Absent keys count 0. *)
}

type t = {
  max_facts : int option;
  strata : stratum array;
  all_heads : Sset.t;
  last_neg : int;  (* last stratum with a negated literal; -1 if none *)
  mutable given : Instance.t;
  mutable model : Instance.t;  (* given ∪ ⋃ derived *)
  mutable size : int;  (* cardinal of model, cached for the guard *)
  mutable db : Joindb.t;  (* indexes over model, lazily built, reused *)
}

let supported = Stratify.is_stratifiable
let given h = h.given
let current h = h.model

(* ------------------------------------------------------------------ *)
(* Probe composition for Eval.iter_firings *)

let probe_db db (ap : Joindb.atom_plan) key emit =
  List.iter emit
    (Joindb.probe db ap.pred ~arity:ap.arity ~positions:ap.key_positions key)

let probe_db_filtered db skip (ap : Joindb.atom_plan) key emit =
  List.iter
    (fun f -> if not (skip f) then emit f)
    (Joindb.probe db ap.pred ~arity:ap.arity ~positions:ap.key_positions key)

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

let seed_plans (r : Ast.rule) =
  List.mapi
    (fun j (a : Ast.atom) ->
      ( a.pred,
        Joindb.plan_rule
          {
            r with
            pos = a :: r.pos;
            neg = List.filteri (fun k _ -> k <> j) r.neg;
          } ))
    r.neg

let make_stratum ~feeding rules =
  let heads =
    List.fold_left (fun s (r : Ast.rule) -> Sset.add r.head.pred s) Sset.empty
      rules
  in
  let body_preds =
    List.fold_left
      (fun s (r : Ast.rule) -> preds_of r.neg (preds_of r.pos s))
      Sset.empty rules
  in
  let neg_preds =
    List.fold_left (fun s (r : Ast.rule) -> preds_of r.neg s) Sset.empty rules
  in
  let plans = Joindb.plan_program rules in
  {
    rules;
    plans;
    heads;
    heads_list = Sset.elements heads;
    body_preds;
    neg_preds;
    recursive = not (Sset.disjoint heads body_preds);
    feeds =
      List.filter
        (fun (pl : Joindb.plan) -> Sset.mem pl.rule.head.pred feeding)
        plans;
    seeds = List.concat_map seed_plans rules;
    derived = Instance.empty;
    counts = None;
  }

let materialize ?max_facts program given =
  match Stratify.stratify program with
  | Error e -> invalid_arg ("Ivm.materialize: " ^ e)
  | Ok { strata = rule_strata; _ } ->
    let feeding = feeding program in
    let strata =
      Array.of_list (List.map (make_stratum ~feeding) rule_strata)
    in
    let acc = ref given in
    Array.iter
      (fun s ->
        let acc' = Eval.seminaive ?max_facts s.rules !acc in
        s.derived <- Instance.restrict_rels acc' s.heads_list;
        acc := acc')
      strata;
    let all_heads =
      Array.fold_left (fun s st -> Sset.union s st.heads) Sset.empty strata
    in
    let last_neg = ref (-1) in
    Array.iteri
      (fun si st -> if not (Sset.is_empty st.neg_preds) then last_neg := si)
      strata;
    {
      max_facts;
      strata;
      all_heads;
      last_neg = !last_neg;
      given;
      model = !acc;
      size = Instance.cardinal !acc;
      db = Joindb.of_instance !acc;
    }

(* Exact derivation counts over the committed model; forced by the first
   retraction that needs them. Also makes [derived] exact (a fact of a
   non-recursive stratum is derivable iff it has a one-step derivation
   from the lower, fully determined predicates — i.e. count > 0). *)
let force_counts h s =
  match s.counts with
  | Some c -> c
  | None ->
    let c = Ftbl.create 64 in
    List.iter
      (fun (pl : Joindb.plan) ->
        Eval.iter_firings
          ~probe:(fun _ ap key emit -> probe_db h.db ap key emit)
          pl
          (fun env ->
            if Joindb.checks_pass h.model Joindb.default_neg env pl.rule then begin
              let f = Joindb.ground_atom env pl.rule.Ast.head in
              Ftbl.replace c f
                (1 + (try Ftbl.find c f with Not_found -> 0))
            end))
      s.plans;
    s.counts <- Some c;
    s.derived <- Instance.filter (fun f -> Ftbl.mem c f) s.derived;
    c

(* ------------------------------------------------------------------ *)
(* One maintenance run. All state is functional relative to the handle
   until [commit]; an exception mid-run leaves the handle intact. *)

type counts_patch = Keep | Invalidate | Table of int Ftbl.t

type run = {
  h : t;
  destructive : bool;
  mutable m_new : Instance.t;  (* new model; head preds ≥ current stratum stale *)
  mutable adds : Fact.t list;  (* presence additions vs the old model *)
  mutable rem_inst : Instance.t;  (* presence removals vs the old model *)
  mutable overlays : Joindb.t list;  (* indexes over [adds], chunked *)
  mutable ap : Sset.t;  (* predicates with additions *)
  mutable rp : Sset.t;  (* predicates with removals *)
  mutable size : int;
  new_derived : Instance.t option array;
  counts_patch : counts_patch array;
}

let guard rs =
  match rs.h.max_facts with
  | Some b when rs.size > b -> raise Eval.Diverged
  | _ -> ()

let commit_added rs facts =
  match facts with
  | [] -> ()
  | _ ->
    rs.m_new <- List.fold_left (fun m f -> Instance.add f m) rs.m_new facts;
    rs.adds <- List.rev_append facts rs.adds;
    rs.overlays <- Joindb.of_facts facts :: rs.overlays;
    rs.ap <- List.fold_left (fun s f -> Sset.add (Fact.rel f) s) rs.ap facts;
    rs.size <- rs.size + List.length facts;
    guard rs

let commit_removed rs facts =
  match facts with
  | [] -> ()
  | _ ->
    rs.m_new <- List.fold_left (fun m f -> Instance.remove f m) rs.m_new facts;
    rs.rem_inst <-
      List.fold_left (fun m f -> Instance.add f m) rs.rem_inst facts;
    rs.rp <- List.fold_left (fun s f -> Sset.add (Fact.rel f) s) rs.rp facts;
    rs.size <- rs.size - List.length facts

(* The full probe of the current (partially updated) database: old model
   minus removals-so-far, plus every addition overlay. *)
let probe_full rs ap key emit =
  if Instance.is_empty rs.rem_inst then probe_db rs.h.db ap key emit
  else probe_db_filtered rs.h.db (fun f -> Instance.mem f rs.rem_inst) ap key
      emit;
  List.iter (fun db -> probe_db db ap key emit) rs.overlays

let relevant_to s f = Sset.mem (Fact.rel f) s.body_preds

(* ------------------------------------------------------------------ *)
(* Insertion-only semi-naive over the given plans of one stratum.
   Requires no removals among the stratum's body or head predicates and
   no old firing blocked by a grown negated predicate; presence additions
   committed so far (including any new given head facts, already
   committed by the caller) seed the delta. Returns the freshly derived
   head facts. *)
let sem_add rs s plans =
  let seen = ref Instance.empty in
  let all_fresh = ref [] in
  let local = ref [] in
  let full ap key emit =
    probe_full rs ap key emit;
    List.iter (fun db -> probe_db db ap key emit) !local
  in
  let rec rounds delta_facts =
    match delta_facts with
    | [] -> ()
    | _ ->
      let ddb = Joindb.of_facts delta_facts in
      local := ddb :: !local;
      let fresh = ref [] in
      List.iter
        (fun (pl : Joindb.plan) ->
          let n = Array.length pl.atoms in
          for which = 0 to n - 1 do
            Eval.iter_firings
              ~probe:(fun i ap key emit ->
                if i = which then probe_db ddb ap key emit
                else full ap key emit)
              pl
              (fun env ->
                if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule
                then begin
                  let f = Joindb.ground_atom env pl.rule.Ast.head in
                  if
                    (not (Instance.mem f rs.m_new))
                    && not (Instance.mem f !seen)
                  then begin
                    seen := Instance.add f !seen;
                    fresh := f :: !fresh
                  end
                end)
          done)
        plans;
      let fresh = !fresh in
      all_fresh := List.rev_append fresh !all_fresh;
      rs.size <- rs.size + List.length fresh;
      guard rs;
      rs.size <- rs.size - List.length fresh;
      rounds fresh
  in
  rounds (List.filter (relevant_to s) rs.adds);
  !all_fresh

(* ------------------------------------------------------------------ *)
(* Per-stratum recomputation: the fallback when a stratum's negated
   predicates are touched (or, in pure mode, when any removal reaches its
   body). Evaluates the stratum's rules to fixpoint over the new lower
   model — old head facts of this stratum excluded, given head facts kept
   — and returns the set of fired (hence derivable) head facts. *)
let scratch rs s ~gh_start =
  let skip f =
    Instance.mem f rs.rem_inst || Sset.mem (Fact.rel f) s.heads
  in
  let ghdb = Joindb.of_facts gh_start in
  let local = ref [] in
  let base ap key emit =
    probe_db_filtered rs.h.db skip ap key emit;
    List.iter (fun db -> probe_db db ap key emit) rs.overlays;
    probe_db ghdb ap key emit;
    List.iter (fun db -> probe_db db ap key emit) !local
  in
  let seen = ref (Instance.of_list gh_start) in
  let derived' = ref Instance.empty in
  let fresh = ref [] in
  let fire (pl : Joindb.plan) env =
    if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule then begin
      let f = Joindb.ground_atom env pl.rule.Ast.head in
      derived' := Instance.add f !derived';
      if not (Instance.mem f !seen) then begin
        seen := Instance.add f !seen;
        fresh := f :: !fresh
      end
    end
  in
  List.iter
    (fun pl -> Eval.iter_firings ~probe:(fun _ ap key emit -> base ap key emit)
        pl (fire pl))
    s.plans;
  let rec rounds delta_facts =
    match delta_facts with
    | [] -> ()
    | _ ->
      let ddb = Joindb.of_facts delta_facts in
      local := ddb :: !local;
      fresh := [];
      List.iter
        (fun (pl : Joindb.plan) ->
          let n = Array.length pl.atoms in
          for which = 0 to n - 1 do
            Eval.iter_firings
              ~probe:(fun i ap key emit ->
                if i = which then probe_db ddb ap key emit
                else base ap key emit)
              pl (fire pl)
          done)
        s.plans;
      rs.size <- rs.size + List.length !fresh;
      guard rs;
      rs.size <- rs.size - List.length !fresh;
      rounds !fresh
  in
  rounds !fresh;
  Observe.Metrics.incr ~by:(Instance.cardinal !derived') m_rederived;
  !derived'

(* ------------------------------------------------------------------ *)
(* DRed for a recursive stratum under removals (negated predicates
   untouched): over-delete everything with a derivation through a
   removed fact, then re-derive from the survivors plus the new input. *)
let dred rs s ~ghr =
  let d = ref Instance.empty in
  let seed =
    List.filter (relevant_to s) (Instance.to_list rs.rem_inst)
    @ List.filter
        (fun f ->
          if Instance.mem f s.derived then begin
            d := Instance.add f !d;
            true
          end
          else false)
        ghr
  in
  let rec over_del w =
    match w with
    | [] -> ()
    | _ ->
      let wdb = Joindb.of_facts w in
      let next = ref [] in
      List.iter
        (fun (pl : Joindb.plan) ->
          let n = Array.length pl.atoms in
          for which = 0 to n - 1 do
            Eval.iter_firings
              ~probe:(fun i ap key emit ->
                if i = which then probe_db wdb ap key emit
                else probe_db rs.h.db ap key emit)
              pl
              (fun env ->
                if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule
                then begin
                  let f = Joindb.ground_atom env pl.rule.Ast.head in
                  if Instance.mem f s.derived && not (Instance.mem f !d)
                  then begin
                    d := Instance.add f !d;
                    next := f :: !next
                  end
                end)
          done)
        s.plans;
      over_del !next
  in
  over_del seed;
  let survivors = Instance.diff s.derived !d in
  survivors, !d

(* Re-derivation phase of DRed: fixpoint over survivors ∪ new input.
   Rules whose head predicate was over-deleted get one full pass (a
   survivor-supported derivation uses no new fact, so semi-naive seeding
   alone would miss it); everything else rides the semi-naive rounds
   seeded by the additions. *)
let rederive rs s ~survivors ~d ~gh_all ~ghr_inst =
  let d_preds =
    Instance.fold (fun f s -> Sset.add (Fact.rel f) s) d Sset.empty
  in
  let skip f =
    Instance.mem f rs.rem_inst || Instance.mem f d || Instance.mem f ghr_inst
  in
  let gh_new =
    List.filter (fun f -> not (Instance.mem f rs.h.model)) gh_all
  in
  let ghdb = Joindb.of_facts gh_new in
  let local = ref [] in
  let base ap key emit =
    probe_db_filtered rs.h.db skip ap key emit;
    List.iter (fun db -> probe_db db ap key emit) rs.overlays;
    probe_db ghdb ap key emit;
    List.iter (fun db -> probe_db db ap key emit) !local
  in
  let seen =
    ref (List.fold_left (fun m f -> Instance.add f m) survivors gh_all)
  in
  let derived' = ref survivors in
  let fresh = ref [] in
  let fire (pl : Joindb.plan) env =
    if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule then begin
      let f = Joindb.ground_atom env pl.rule.Ast.head in
      derived' := Instance.add f !derived';
      if not (Instance.mem f !seen) then begin
        seen := Instance.add f !seen;
        fresh := f :: !fresh
      end
    end
  in
  (* Pass B: full pass for rules that can resurrect over-deleted heads. *)
  List.iter
    (fun (pl : Joindb.plan) ->
      if Sset.mem pl.rule.Ast.head.pred d_preds then
        Eval.iter_firings
          ~probe:(fun _ ap key emit -> base ap key emit)
          pl (fire pl))
    s.plans;
  (* Pass A: semi-naive over the additions accumulated so far. *)
  let body_adds = List.filter (relevant_to s) rs.adds in
  (match body_adds with
  | [] -> ()
  | _ ->
    let adb = Joindb.of_facts body_adds in
    List.iter
      (fun (pl : Joindb.plan) ->
        let n = Array.length pl.atoms in
        for which = 0 to n - 1 do
          Eval.iter_firings
            ~probe:(fun i ap key emit ->
              if i = which then probe_db adb ap key emit
              else base ap key emit)
            pl (fire pl)
        done)
      s.plans);
  let rec rounds delta_facts =
    match delta_facts with
    | [] -> ()
    | _ ->
      let ddb = Joindb.of_facts delta_facts in
      local := ddb :: !local;
      fresh := [];
      List.iter
        (fun (pl : Joindb.plan) ->
          let n = Array.length pl.atoms in
          for which = 0 to n - 1 do
            Eval.iter_firings
              ~probe:(fun i ap key emit ->
                if i = which then probe_db ddb ap key emit
                else base ap key emit)
              pl (fire pl)
          done)
        s.plans;
      rs.size <- rs.size + List.length !fresh;
      guard rs;
      rs.size <- rs.size - List.length !fresh;
      rounds !fresh
  in
  rounds !fresh;
  let recomputed = Instance.cardinal (Instance.diff !derived' survivors) in
  if recomputed > 0 then Observe.Metrics.incr ~by:recomputed m_rederived;
  !derived'

(* ------------------------------------------------------------------ *)
(* Counting maintenance for a non-recursive stratum (negated predicates
   untouched): destroyed firings decrement, created firings increment,
   each enumerated exactly once by the standard partition — the position
   of the least changed fact probes the change, earlier positions the
   pre-state, later positions the post-state. *)
let counting_maintain rs s ~ghr =
  let body_rem =
    List.filter (relevant_to s) (Instance.to_list rs.rem_inst)
  in
  let body_add = List.filter (relevant_to s) rs.adds in
  let need_counts = ghr <> [] || body_rem <> [] in
  let counts =
    if need_counts then Some (Ftbl.copy (force_counts rs.h s))
    else Option.map Ftbl.copy s.counts
  in
  let derived' = ref s.derived in
  (match body_rem with
  | [] -> ()
  | _ ->
    let c = Option.get counts in
    let rdb = Joindb.of_facts body_rem in
    let in_rem f = Instance.mem f rs.rem_inst in
    List.iter
      (fun (pl : Joindb.plan) ->
        let n = Array.length pl.atoms in
        for which = 0 to n - 1 do
          Eval.iter_firings
            ~probe:(fun i ap key emit ->
              if i = which then probe_db rdb ap key emit
              else if i < which then
                probe_db_filtered rs.h.db in_rem ap key emit
              else probe_db rs.h.db ap key emit)
            pl
            (fun env ->
              if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule
              then begin
                let f = Joindb.ground_atom env pl.rule.Ast.head in
                match Ftbl.find_opt c f with
                | Some k when k > 1 -> Ftbl.replace c f (k - 1)
                | Some _ ->
                  Ftbl.remove c f;
                  derived' := Instance.remove f !derived'
                | None -> ()
              end)
        done)
      s.plans);
  (match body_add with
  | [] -> ()
  | _ ->
    let adb = Joindb.of_facts body_add in
    let in_rem f = Instance.mem f rs.rem_inst in
    let mid ap key emit = probe_db_filtered rs.h.db in_rem ap key emit in
    let post ap key emit =
      mid ap key emit;
      List.iter (fun db -> probe_db db ap key emit) rs.overlays
    in
    List.iter
      (fun (pl : Joindb.plan) ->
        let n = Array.length pl.atoms in
        for which = 0 to n - 1 do
          Eval.iter_firings
            ~probe:(fun i ap key emit ->
              if i = which then probe_db adb ap key emit
              else if i < which then mid ap key emit
              else post ap key emit)
            pl
            (fun env ->
              if Joindb.checks_pass rs.m_new Joindb.default_neg env pl.rule
              then begin
                let f = Joindb.ground_atom env pl.rule.Ast.head in
                (match counts with
                | Some c ->
                  Ftbl.replace c f
                    (1 + (try Ftbl.find c f with Not_found -> 0))
                | None -> ());
                derived' := Instance.add f !derived'
              end)
        done)
      s.plans);
  (!derived', match counts with Some c -> Table c | None -> Keep)

(* ------------------------------------------------------------------ *)
(* Driver: route each stratum to the cheapest sound maintenance path,
   threading presence changes downward. *)

let new_run h ~destructive =
  {
    h;
    destructive;
    m_new = h.model;
    adds = [];
    rem_inst = Instance.empty;
    overlays = [];
    ap = Sset.empty;
    rp = Sset.empty;
    size = h.size;
    new_derived = Array.make (Array.length h.strata) None;
    counts_patch = Array.make (Array.length h.strata) Keep;
  }

let run_update h ~destructive ~add_list ~remove =
  Observe.Metrics.incr m_applies;
  (* Trajectory of delta sizes, tick auto-assigned per apply: shows how
     the workload's updates shrink or grow over a scan. *)
  if Observe.Series.is_enabled () then
    Observe.Series.sample_auto "eval.ivm_delta"
      (float_of_int (List.length add_list + Instance.cardinal remove));
  let rs = new_run h ~destructive in
  let given' =
    lazy
      (List.fold_left
         (fun g f -> Instance.add f g)
         (Instance.diff h.given remove)
         add_list)
  in
  (* Edb-level presence changes: predicates no stratum derives. *)
  commit_added rs
    (List.filter
       (fun f ->
         (not (Sset.mem (Fact.rel f) h.all_heads))
         && not (Instance.mem f h.model))
       add_list);
  if not (Instance.is_empty remove) then
    commit_removed rs
      (Instance.fold
         (fun f acc ->
           if
             (not (Sset.mem (Fact.rel f) h.all_heads))
             && Instance.mem f h.given
             && not (List.exists (Fact.equal f) add_list)
           then f :: acc
           else acc)
         remove []);
  Array.iteri
    (fun si s ->
      let gha_new =
        List.filter
          (fun f ->
            Sset.mem (Fact.rel f) s.heads && not (Instance.mem f h.model))
          add_list
      in
      let ghr =
        if Instance.is_empty remove then []
        else
          Instance.fold
            (fun f acc ->
              if
                Sset.mem (Fact.rel f) s.heads
                && Instance.mem f h.given
                && not (List.exists (Fact.equal f) add_list)
              then f :: acc
              else acc)
            remove []
      in
      let changed = Sset.union rs.ap rs.rp in
      let touched =
        (not (Sset.disjoint s.body_preds changed))
        || gha_new <> [] || ghr <> []
      in
      if touched then begin
        let neg_hit = not (Sset.disjoint s.neg_preds changed) in
        let body_rem = not (Sset.disjoint s.body_preds rs.rp) in
        let profiling = Observe.Profile.is_enabled () in
        let in_span name f =
          if profiling then Observe.Profile.span name f else f ()
        in
        (* Uniform commit for the heavyweight paths: diff the stratum's
           new presence (given' head facts ∪ derived') against the old. *)
        let commit_pres derived' =
          let gh_all =
            Instance.restrict_rels (Lazy.force given') s.heads_list
          in
          let new_pres = Instance.union gh_all derived' in
          let old_pres = Instance.restrict_rels h.model s.heads_list in
          commit_removed rs (Instance.to_list (Instance.diff old_pres new_pres));
          commit_added rs (Instance.to_list (Instance.diff new_pres old_pres));
          rs.new_derived.(si) <- Some derived'
        in
        if destructive then
          if neg_hit then begin
            let derived' =
              in_span "ivm.rederive" (fun () ->
                  scratch rs s
                    ~gh_start:
                      (Instance.to_list
                         (Instance.restrict_rels (Lazy.force given')
                            s.heads_list)))
            in
            commit_pres derived';
            if not s.recursive then rs.counts_patch.(si) <- Invalidate
          end
          else if s.recursive then begin
            if body_rem || ghr <> [] then begin
              let derived' =
                in_span "ivm.rederive" (fun () ->
                    let survivors, d = dred rs s ~ghr in
                    rederive rs s ~survivors ~d
                      ~gh_all:
                        (Instance.to_list
                           (Instance.restrict_rels (Lazy.force given')
                              s.heads_list))
                      ~ghr_inst:(Instance.of_list ghr))
              in
              commit_pres derived'
            end
            else begin
              commit_added rs gha_new;
              let fresh = sem_add rs s s.plans in
              commit_added rs fresh;
              rs.new_derived.(si) <-
                Some
                  (List.fold_left
                     (fun acc f -> Instance.add f acc)
                     s.derived fresh)
            end
          end
          else begin
            commit_added rs gha_new;
            let derived', patch = counting_maintain rs s ~ghr in
            (* gha_new already committed; commit_pres recomputes the full
               presence diff, so undo nothing — the diff below is against
               the old model and m_new already holds gha_new, which the
               diff will simply not re-add. *)
            let gh_all =
              Instance.restrict_rels (Lazy.force given') s.heads_list
            in
            let new_pres = Instance.union gh_all derived' in
            let old_pres = Instance.restrict_rels h.model s.heads_list in
            commit_removed rs
              (Instance.to_list (Instance.diff old_pres new_pres));
            commit_added rs
              (List.filter
                 (fun f -> not (Instance.mem f rs.m_new))
                 (Instance.to_list (Instance.diff new_pres old_pres)));
            rs.new_derived.(si) <- Some derived';
            rs.counts_patch.(si) <- patch
          end
        else if neg_hit || body_rem || ghr <> [] then begin
          let derived' =
            in_span "ivm.rederive" (fun () ->
                scratch rs s
                  ~gh_start:
                    (Instance.to_list
                       (Instance.restrict_rels (Lazy.force given')
                          s.heads_list)))
          in
          commit_pres derived'
        end
        else begin
          commit_added rs gha_new;
          commit_added rs (sem_add rs s s.plans)
        end
      end)
    h.strata;
  if destructive then begin
    h.given <- Lazy.force given';
    h.model <- rs.m_new;
    h.size <- rs.size;
    h.db <- Joindb.update h.db ~add:rs.adds ~remove:rs.rem_inst;
    Array.iteri
      (fun si s ->
        (match rs.new_derived.(si) with
        | Some d -> s.derived <- d
        | None -> ());
        match rs.counts_patch.(si) with
        | Keep -> ()
        | Invalidate -> s.counts <- None
        | Table c -> s.counts <- Some c)
      h.strata
  end;
  rs.m_new

(* ------------------------------------------------------------------ *)
(* Losses under insertion *)

exception Seed

(* A seed of stratum [s]: a firing valid in the old model — positive
   atoms probed on the handle's indexes, inequalities and the other
   negations checked against [h.model] — whose negated atom is one of
   the grown facts. Without one every old firing still holds, so no
   fact of [s] is lost and [sem_add] stays exact for it. *)
let seeded rs s =
  List.exists
    (fun (pred, (pl : Joindb.plan)) ->
      Sset.mem pred rs.ap
      &&
      try
        Eval.iter_firings
          ~probe:(fun i ap key emit ->
            if i = 0 then
              List.iter (fun db -> probe_db db ap key emit) rs.overlays
            else probe_db rs.h.db ap key emit)
          pl
          (fun env ->
            if Joindb.checks_pass rs.h.model Joindb.default_neg env pl.rule
            then raise_notrace Seed);
        false
      with Seed -> true)
    s.seeds

(* One full-model run, inside an [ivm.apply] span under profiling. *)
let full_run h ~destructive ~add_list ~remove =
  let run () = run_update h ~destructive ~add_list ~remove in
  if Observe.Profile.is_enabled () then Observe.Profile.span "ivm.apply" run
  else run ()

(* The full-model what-if: the model of [given ∪ adds], [adds] fresh. *)
let what_if h adds =
  full_run h ~destructive:false ~add_list:adds ~remove:Instance.empty

let lost h facts =
  if h.last_neg < 0 then Instance.empty
  else
    match List.filter (fun f -> not (Instance.mem f h.model)) facts with
    | [] -> Instance.empty
    | adds ->
      let rs = new_run h ~destructive:false in
      commit_added rs
        (List.filter (fun f -> not (Sset.mem (Fact.rel f) h.all_heads)) adds);
      (* Stratum by stratum up to the last negation: look for a seed
         against the growth of the strata below, then grow this one
         through its negation-feeding rules only. *)
      let rec any_seed si =
        si <= h.last_neg
        &&
        let s = h.strata.(si) in
        (seeded rs s
        ||
        match s.feeds with
        | [] -> any_seed (si + 1)
        | feeds ->
          commit_added rs
            (List.filter (fun f -> Sset.mem (Fact.rel f) s.heads) adds);
          if not (Sset.disjoint s.body_preds rs.ap) then
            commit_added rs (sem_add rs s feeds);
          any_seed (si + 1))
      in
      if any_seed 0 then Instance.diff h.model (what_if h adds)
      else Instance.empty

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let apply h ~delta =
  match
    List.filter
      (fun f -> not (Instance.mem f h.model))
      (Instance.to_list delta)
  with
  | [] ->
    Observe.Metrics.incr m_applies;
    h.model
  | adds -> what_if h adds

let update h ~add ~remove =
  full_run h ~destructive:true ~add_list:(Instance.to_list add) ~remove

let insert h delta = update h ~add:delta ~remove:Instance.empty
let retract h delta = update h ~add:Instance.empty ~remove:delta
