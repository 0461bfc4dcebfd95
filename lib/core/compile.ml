open Relational

type compiled = {
  level : Hierarchy.level;
  source : Hierarchy.source;
  query : Query.t;
  transducer : Network.Transducer.t;
  variant : Network.Config.variant;
  domain_guided_only : bool;
}

let strategy_for (level : Hierarchy.level) q =
  match level with
  | Hierarchy.Monotone -> Strategies.Broadcast.transducer q
  | Hierarchy.Domain_distinct -> Strategies.Absence.transducer q
  | Hierarchy.Domain_disjoint -> Strategies.Domain_request.transducer q
  | Hierarchy.Beyond ->
    invalid_arg
      (Printf.sprintf
         "Compile.strategy_for: %s is outside Mdisjoint; no coordination-free \
          strategy exists"
         q.Query.name)

(* The coordinated complement of the coordination-free strategies:
   queries outside Mdisjoint have none (that is the paper's point), but
   the barrier strategy still computes them — at the price of the
   heard-from-all-nodes cut that {!Network.Provenance.coordinated}
   observes. It needs no policy relations: the original model of Ameloot
   et al. suffices. *)
let coordinated q =
  {
    level = Hierarchy.Beyond;
    source = Hierarchy.Given;
    query = q;
    transducer = Strategies.Barrier.transducer q;
    variant = Network.Config.original;
    domain_guided_only = false;
  }

let compile ~level q =
  match level with
  | Hierarchy.Beyond -> coordinated q
  | level ->
    {
      level;
      source = Hierarchy.Given;
      query = q;
      transducer = strategy_for level q;
      variant =
        (match level with
        | Hierarchy.Monotone -> Network.Config.oblivious
        | _ -> Network.Config.policy_aware);
      domain_guided_only = level = Hierarchy.Domain_disjoint;
    }

let compile_program ?jobs p =
  let q = Datalog.Program.query ~name:"program" p in
  let fragment = Datalog.Program.fragment p in
  let level, source =
    match Hierarchy.of_fragment fragment with
    | Hierarchy.Beyond ->
      let bounds = Monotone.Checker.default_bounds in
      (Hierarchy.place_empirically ~bounds ?jobs q, Hierarchy.Bounded bounds)
    | level -> (level, Hierarchy.Syntactic fragment)
  in
  { (compile ~level q) with source }
