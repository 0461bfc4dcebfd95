type delta = { facts : Fact.t list; instance : Instance.t Lazy.t }

let delta_of_instance i = { facts = Instance.to_list i; instance = lazy i }
let delta_of_facts facts = { facts; instance = lazy (Instance.of_list facts) }
let delta_instance d = Lazy.force d.instance

type t = {
  name : string;
  input : Schema.t;
  output : Schema.t;
  constants : Value.t list;
  eval : Instance.t -> Instance.t;
  witness :
    (base:Instance.t -> expected:Instance.t -> delta -> Fact.t option) option;
  maintain : (Instance.t -> delta -> Instance.t) option;
}

let make ?witness ?maintain ?(constants = []) ~name ~input ~output eval =
  { name; input; output; constants; eval; witness; maintain }

let apply q i =
  let result = q.eval (Instance.restrict i q.input) in
  if not (Instance.over result q.output) then
    invalid_arg
      (Printf.sprintf "Query.apply: %s produced facts outside %s" q.name
         (Schema.to_string q.output));
  result

(* The monotonicity scan's membership probe, staged per base: [stage q
   ~base ~expected] returns a function answering, for each extension
   [Δ], the least fact of [expected] outside [Q(base ∪ Δ)]. A
   query-supplied witness does the per-base analysis once (interning the
   base's graph, resolving [expected]) and answers each probe from the
   delta's few facts, never materializing [Q]; the [maintain] route
   saturates [Q(base)] once into an incremental handle and answers each
   probe with the least fact of [expected] among those Δ removes from
   [Q(base)] — enough, since [expected ⊆ Q(base)] there — and at once
   when Δ removes none; the fallback unions, evaluates from scratch, and
   scans [expected] in fact order. All routes return the head of
   [diff expected after] whenever that diff is non-empty.
   The non-witness routes skip [apply]'s output validation — the scan
   probes millions of instances and the validation is a development
   assertion, re-checked on the certificate path. *)
let stage q ~base ~expected =
  if Instance.is_empty expected then fun _ -> None
  else
    match (q.witness, q.maintain) with
    | Some w, _ -> w ~base ~expected
    | None, Some m ->
      let removed = m (Instance.restrict base q.input) in
      fun d ->
        let lost = removed d in
        if Instance.is_empty lost then None
        else
          List.find_opt
            (fun f -> Instance.mem f expected)
            (Instance.to_list lost)
    | None, None ->
      fun d ->
        Instance.first_missing expected
          (q.eval
             (Instance.restrict
                (Instance.union base (delta_instance d))
                q.input))

type route = Witness | Ivm | Eval

let route q =
  match (q.witness, q.maintain) with
  | Some _, _ -> Witness
  | None, Some _ -> Ivm
  | None, None -> Eval

(* Only the values outside [q.constants] move: the query is generic
   under their pointwise stabiliser, not under every permutation. *)
let check_generic ?(trials = 8) ?(seed = 42) q i =
  let fixed = Value.Set.of_list q.constants in
  let dom = Value.Set.diff (Instance.adom i) fixed in
  let ok = ref true in
  for k = 0 to trials - 1 do
    let pi =
      Homomorphism.random_permutation ~avoid:fixed ~seed:(seed + k) dom
    in
    let lhs = apply q (Homomorphism.apply pi i) in
    let rhs = Homomorphism.apply pi (apply q i) in
    if not (Instance.equal lhs rhs) then ok := false
  done;
  !ok
