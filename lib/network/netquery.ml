open Relational

let default_schedulers =
  [
    ("round-robin", Run.Round_robin);
    ("random", Run.Random { seed = 1; steps = 60 });
    ("stingy", Run.Stingy { seed = 2; steps = 80 });
  ]

let default_policies ?(domain_guided_only = false) schema network =
  let all =
    [
      Policy.hash_fact schema network;
      Policy.first_attribute schema network;
      Policy.hash_value schema network;
      Policy.replicate_all schema network;
      Policy.single schema network (List.hd network);
    ]
  in
  if domain_guided_only then List.filter Policy.is_domain_guided all else all

type verdict = {
  expected : Instance.t;
  runs : (string * Run.result) list;
  mismatches : string list;
  all_quiesced : bool;
}

let consistent v = v.mismatches = [] && v.all_quiesced

let grid policies schedulers =
  List.concat_map
    (fun policy ->
      List.map
        (fun (sname, sched) -> (Policy.name policy ^ "/" ^ sname, policy, sched))
        schedulers)
    policies

let judge ~expected swept =
  let runs = List.map (fun (label, r, _) -> (label, r)) swept in
  let mismatches =
    List.filter_map
      (fun (label, r) ->
        if Instance.equal r.Run.outputs expected then None else Some label)
      runs
  in
  let all_quiesced = List.for_all (fun (_, r) -> r.Run.quiesced) runs in
  { expected; runs; mismatches; all_quiesced }

let check_traced ?(schedulers = default_schedulers) ?policies ?faults
    ?max_rounds ?jobs ~variant ~transducer ~query ~input network =
  let policies =
    match policies with
    | Some ps -> ps
    | None -> default_policies query.Query.input network
  in
  let expected = Query.apply query input in
  let swept =
    Run.sweep ?jobs ?faults ?max_rounds ~variant ~transducer ~input
      (grid policies schedulers)
  in
  ( judge ~expected swept,
    List.map (fun (label, _r, events) -> (label, events)) swept )

let check ?schedulers ?policies ?max_rounds ?jobs ~variant ~transducer ~query
    ~input network =
  fst
    (check_traced ?schedulers ?policies ?max_rounds ?jobs ~variant ~transducer
       ~query ~input network)
