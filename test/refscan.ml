(* Reference scan: the monotonicity scan's pair stream as it stood before
   the index kernel, kept as a slow test-only oracle in the style of
   [Refexplore]. Per base, the candidate facts are filtered and sorted as
   a list, every extension is drawn lazily from
   [Enumerate.subsets_up_to] and presented as a [Query.delta], and a
   sequential loop probes each one through [Classes.stage], walking
   (rather than counting) the extensions of a base whose [Q(base)] is
   empty. The differential wall in test_monotone.ml holds
   [Checker.check_exhaustive]/[check_on_bases] to it at every job count:
   same verdict, certificate, [monotone.probes] and [pairs_scanned]. *)

open Relational
open Monotone

let extension_deltas kind ~base ~schema ~fresh ~max_size =
  let base_dom = Instance.adom base in
  let pool =
    match (kind : Classes.kind) with
    | Disjoint -> Value.Set.of_list fresh
    | Plain | Distinct ->
      Value.Set.union base_dom (Value.Set.of_list fresh)
  in
  let candidates =
    Schema.all_facts schema pool
    |> List.filter (fun f ->
           (not (Instance.mem f base))
           &&
           match kind with
           | Classes.Plain -> true
           | Classes.Distinct ->
             not (Value.Set.subset (Fact.adom f) base_dom)
           | Classes.Disjoint ->
             Value.Set.is_empty (Value.Set.inter (Fact.adom f) base_dom))
    |> List.sort Fact.compare
  in
  Enumerate.subsets_up_to candidates max_size
  |> Seq.filter (fun l -> l <> [])
  |> Seq.map Query.delta_of_facts

let extensions kind ~base ~schema ~fresh ~max_size =
  extension_deltas kind ~base ~schema ~fresh ~max_size
  |> Seq.map Query.delta_instance

(* The outcome, and the probes made up to it: every pair when no
   violation is found, else the pairs up to and including the first
   violating one. *)
let scan kind q ~schema ~fresh ~max_ext bases =
  let probes = ref 0 in
  let rec groups s =
    match s () with
    | Seq.Nil -> Checker.No_violation { pairs = !probes }
    | Seq.Cons (base, rest) -> (
      let before = Query.apply q base in
      let probe =
        if Instance.is_empty before then fun _ -> None
        else Classes.stage ~before kind q ~base
      in
      let rec pairs s =
        match s () with
        | Seq.Nil -> None
        | Seq.Cons (d, rest) -> (
          incr probes;
          match probe d with Some v -> Some v | None -> pairs rest)
      in
      match
        pairs (extension_deltas kind ~base ~schema ~fresh ~max_size:max_ext)
      with
      | Some v -> Checker.Violated v
      | None -> groups rest)
  in
  let outcome = groups bases in
  (outcome, !probes)

let check_exhaustive ?(bounds = Checker.default_bounds) kind q =
  let schema = q.Query.input in
  scan kind q ~schema
    ~fresh:(Enumerate.fresh_pool bounds.Checker.fresh)
    ~max_ext:bounds.Checker.max_ext
    (Enumerate.instances schema
       ~dom:(Enumerate.value_pool bounds.Checker.dom_size)
       ~max_facts:bounds.Checker.max_base)

let check_on_bases ?(fresh = 2) ?(max_ext = 2) kind q bases =
  scan kind q ~schema:q.Query.input ~fresh:(Enumerate.fresh_pool fresh)
    ~max_ext (List.to_seq bases)
