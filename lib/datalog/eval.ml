open Relational

exception Diverged

let skolem_functor = Joindb.skolem_functor

module Env = Joindb.Env
module Smap = Joindb.Smap

let default_neg = Joindb.default_neg

(* Telemetry (all stable): where the evaluator's work goes. Counted
   locally per rule activation and committed in one increment, so the hot
   join loop pays one registry hit per rule rather than one per candidate
   fact. [eval.index_hits] counts index probes that produced at least one
   candidate; [eval.join_probes] counts the candidates examined — under
   the indexed engine the latter is the post-hashing residue, not the
   predicate's whole extent as in the seed nested-loop engine. *)
let m_join_probes = Observe.Metrics.counter "eval.join_probes"
let m_index_hits = Observe.Metrics.counter "eval.index_hits"
let m_derived = Observe.Metrics.counter "eval.derived_facts"
let m_rounds = Observe.Metrics.counter "eval.seminaive_rounds"
let m_delta = Observe.Metrics.histogram "eval.delta_size"
let m_fixpoint = Observe.Metrics.timing "eval.fixpoint"

type stats = { mutable probes : int; mutable hits : int }

(* Enumerate environments extending [env] satisfying the positive atoms;
   atom number [idx] (if given) probes [delta] instead of the full
   database. Each atom costs one index lookup plus a scan of the facts
   agreeing with the bindings on its keyed positions. *)
let rec satisfy stats plans which i n db delta env k =
  if i = n then k env
  else begin
    let ap : Joindb.atom_plan = plans.(i) in
    let source = if Some i = which then delta else db in
    let key = Joindb.key_of_env env ap in
    let candidates =
      Joindb.probe source ap.pred ~arity:ap.arity
        ~positions:ap.key_positions key
    in
    (match candidates with [] -> () | _ -> stats.hits <- stats.hits + 1);
    List.iter
      (fun f ->
        stats.probes <- stats.probes + 1;
        match Joindb.extend env ap.slots f with
        | None -> ()
        | Some env' -> satisfy stats plans which (i + 1) n db delta env' k)
      candidates
  end

(* Delta plumbing for the incremental (IVM) layer: enumerate the
   valuations of a plan's positive body with a caller-chosen probe per
   atom position. [probe i ap key emit] must call [emit] on every
   candidate fact for atom [i] whose keyed positions equal [key]; the
   IVM layer composes base/overlay databases and membership filters
   there (Δ-only positions, old ∖ removed, the counting partitions).
   Inequality and negation side conditions stay with the caller, which
   sees each complete valuation. *)
let iter_firings ~probe (p : Joindb.plan) k =
  let n = Array.length p.atoms in
  let rec go i env =
    if i = n then k env
    else
      let ap : Joindb.atom_plan = p.atoms.(i) in
      probe i ap (Joindb.key_of_env env ap) (fun f ->
          match Joindb.extend env ap.slots f with
          | None -> ()
          | Some env' -> go (i + 1) env')
  in
  go 0 Env.empty

(* ANALYZE label: one flat string per rule, shared by the profile span
   and the per-rule metric rows. *)
let rule_label (r : Ast.rule) =
  let preds atoms = List.map (fun (a : Ast.atom) -> a.Ast.pred) atoms in
  r.head.Ast.pred ^ "<-"
  ^ String.concat "," (preds r.pos)
  ^ (match r.neg with
    | [] -> ""
    | ns -> ",!" ^ String.concat ",!" (preds ns))

let derive_plan ~neg ~current ~db ~delta ~which (p : Joindb.plan) acc =
  let profiling = Observe.Profile.is_enabled () in
  let run () =
    let out = ref acc in
    let stats = { probes = 0; hits = 0 } in
    let fired = ref 0 in
    let n = Array.length p.atoms in
    satisfy stats p.atoms which 0 n db delta Env.empty (fun env ->
        if Joindb.checks_pass current neg env p.rule then begin
          if profiling then incr fired;
          out := Instance.add (Joindb.ground_atom env p.rule.head) !out
        end);
    if stats.probes > 0 then Observe.Metrics.incr ~by:stats.probes m_join_probes;
    if stats.hits > 0 then Observe.Metrics.incr ~by:stats.hits m_index_hits;
    (!out, !fired)
  in
  if not profiling then fst (run ())
  else begin
    (* Per-rule ANALYZE, recorded only under [calm profile]/[--profile]:
       fired/derived/deduped are stable counters (summed per activation,
       so byte-identical across --jobs by the pool's in-order merge);
       the timing and the profile span stay volatile. *)
    let label = rule_label p.rule in
    let labels = [ ("rule", label) ] in
    let out, fired =
      Observe.Profile.span ("rule:" ^ label) (fun () ->
          Observe.Metrics.time
            (Observe.Metrics.timing ~labels "eval.rule_time")
            run)
    in
    let derived = Instance.cardinal out - Instance.cardinal acc in
    Observe.Metrics.incr ~by:fired
      (Observe.Metrics.counter ~labels "eval.rule_fired");
    Observe.Metrics.incr ~by:derived
      (Observe.Metrics.counter ~labels "eval.rule_derived");
    Observe.Metrics.incr ~by:(fired - derived)
      (Observe.Metrics.counter ~labels "eval.rule_deduped");
    out
  end

let derive_plans ?(neg = default_neg) plans j =
  let db = Joindb.of_instance j in
  let out =
    List.fold_left
      (fun acc p ->
        derive_plan ~neg ~current:j ~db ~delta:Joindb.empty ~which:None p acc)
      Instance.empty plans
  in
  Observe.Metrics.incr ~by:(Instance.cardinal out) m_derived;
  out

let derive ?neg p j = derive_plans ?neg (Joindb.plan_program p) j

let immediate_consequence ?neg p j = Instance.union j (derive ?neg p j)

let guard max_facts j =
  match max_facts with
  | Some budget when Instance.cardinal j > budget -> raise Diverged
  | _ -> ()

let naive ?neg ?max_facts p i =
  let plans = Joindb.plan_program p in
  let rec go j =
    guard max_facts j;
    let j' = Instance.union j (derive_plans ?neg plans j) in
    if Instance.equal j' j then j else go j'
  in
  go i

(* Semi-naive: after the first full round, every new derivation must match
   at least one positive atom in the delta. Negated predicates are fixed
   during a semi-positive fixpoint, so they take no part in deltas. *)
let seminaive ?(neg = default_neg) ?max_facts p i =
  let plans = Joindb.plan_program p in
  let step db_i delta_i =
    let db = Joindb.of_instance db_i and delta = Joindb.of_instance delta_i in
    List.fold_left
      (fun acc (p : Joindb.plan) ->
        let n = Array.length p.atoms in
        let rec over_idx which acc =
          if which = n then acc
          else
            over_idx (which + 1)
              (derive_plan ~neg ~current:db_i ~db ~delta ~which:(Some which) p
                 acc)
        in
        over_idx 0 acc)
      Instance.empty plans
  in
  Observe.Metrics.time m_fixpoint (fun () ->
      let first = derive_plans ~neg plans i in
      let rec go db delta =
        guard max_facts db;
        if Instance.is_empty delta then db
        else begin
          Observe.Metrics.incr m_rounds;
          Observe.Metrics.observe m_delta
            (float_of_int (Instance.cardinal delta));
          let db' = Instance.union db delta in
          let fresh = Instance.diff (step db' delta) db' in
          go db' fresh
        end
      in
      go i (Instance.diff first i))

let stratified ?max_facts p i =
  match Stratify.stratify p with
  | Error e -> Error e
  | Ok { strata; _ } ->
    Ok
      (List.fold_left
         (fun acc stratum -> seminaive ?max_facts stratum acc)
         i strata)

let stratified_exn ?max_facts p i =
  match stratified ?max_facts p i with
  | Ok r -> r
  | Error e -> invalid_arg ("Eval.stratified_exn: " ^ e)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: one instrumented derivation pass over a database
   (typically the fixpoint), counting per-atom index lookups and the
   candidates each probe actually examined, against the estimate a
   nested-loop scan would have paid (lookups × predicate extent). *)

type atom_report = {
  atom : Joindb.atom_plan;
  extent : int;
  lookups : int;
  est_candidates : int;
  candidates : int;
}

type rule_report = {
  plan : Joindb.plan;
  atom_reports : atom_report list;
  valuations : int;
  fired : int;
  derived : int;
}

let explain ?(neg = default_neg) p j =
  let db = Joindb.of_instance j in
  let extent_of (ap : Joindb.atom_plan) =
    Instance.fold
      (fun f n ->
        if Fact.rel f = ap.pred && Fact.arity f = ap.arity then n + 1 else n)
      j 0
  in
  List.map
    (fun (pl : Joindb.plan) ->
      let n = Array.length pl.atoms in
      let lookups = Array.make n 0 and cands = Array.make n 0 in
      let vals = ref 0 and fired = ref 0 in
      let out = ref Instance.empty in
      let rec go i env =
        if i = n then begin
          incr vals;
          if Joindb.checks_pass j neg env pl.rule then begin
            incr fired;
            out := Instance.add (Joindb.ground_atom env pl.rule.head) !out
          end
        end
        else begin
          let ap = pl.atoms.(i) in
          lookups.(i) <- lookups.(i) + 1;
          let candidates =
            Joindb.probe db ap.pred ~arity:ap.arity ~positions:ap.key_positions
              (Joindb.key_of_env env ap)
          in
          cands.(i) <- cands.(i) + List.length candidates;
          List.iter
            (fun f ->
              match Joindb.extend env ap.slots f with
              | None -> ()
              | Some env' -> go (i + 1) env')
            candidates
        end
      in
      go 0 Env.empty;
      let atom_reports =
        List.init n (fun i ->
            let ap = pl.atoms.(i) in
            let extent = extent_of ap in
            {
              atom = ap;
              extent;
              lookups = lookups.(i);
              est_candidates = lookups.(i) * extent;
              candidates = cands.(i);
            })
      in
      {
        plan = pl;
        atom_reports;
        valuations = !vals;
        fired = !fired;
        derived = Instance.cardinal (Instance.diff !out j);
      })
    (Joindb.plan_program p)

let pp_explain ppf reports =
  List.iteri
    (fun ri r ->
      Format.fprintf ppf "rule %d: %a@." (ri + 1) Ast.pp_rule r.plan.Joindb.rule;
      List.iteri
        (fun ai a ->
          Format.fprintf ppf "  atom %d: %a@." (ai + 1) Joindb.pp_atom_plan
            a.atom;
          let saved =
            if a.candidates < a.est_candidates && a.candidates > 0 then
              Format.asprintf " (%.1fx fewer than scan)"
                (float_of_int a.est_candidates /. float_of_int a.candidates)
            else ""
          in
          Format.fprintf ppf
            "          lookups=%d extent=%d est-candidates=%d candidates=%d%s@."
            a.lookups a.extent a.est_candidates a.candidates saved)
        r.atom_reports;
      Format.fprintf ppf "  valuations=%d fired=%d derived=%d@." r.valuations
        r.fired r.derived)
    reports
