(* The five perf workloads. Each is built from the seed by [make] (the
   set-up the benchmark times) and exposes the operations of one pass —
   once with the library's own closures and once with the same closures
   wrapped by {!Tracer} — plus the state the microbenches run on.

   Every operation checks its own answer against an oracle and raises
   {!Wrong_answer} on a mismatch. *)

open Relational
open Monotone
open Queries

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

type scale = Full | Smoke

type op = {
  label : string;
  exec : jobs:int -> int;
      (** runs the operation, checks its answer, returns its step count:
          probes for a verdict, transitions for a run, configurations for
          an exploration *)
}

(* State the microbenches run on, captured from the workload. *)
type net_state = {
  config : Network.Config.t;
  variant : Network.Config.variant;
  policy : Network.Policy.t;
  transducer : Network.Transducer.t;
  input : Instance.t;
}

type captured = {
  pairs : (Instance.t * Instance.t) list;  (** (state, input) pairs *)
  buffers : Multiset.t list;
  restrict_to : Schema.t;
  net : net_state option;
}

type t = {
  name : string;
  ops : traced:bool -> op list;
  pool_ops : bool;
      (** operations are independent runs, so a [jobs > 1] pass maps
          them over a pool; otherwise [jobs] goes to the library call *)
  owner : string;
      (** the layer whose self time is an operation's unwrapped time:
          ["monotone"], ["run"] or ["explore"] *)
  capture : unit -> captured;
}

let names =
  [
    "check-zoo"; "check-programs"; "sweep-battery"; "run-wide";
    "explore-budget";
  ]

(* -- seeded inputs ----------------------------------------------------- *)

(* The seed renames the integer values of a generated input to distinct
   values drawn from [1000, 10000), away from every node identifier.
   Policies are transported along the renaming, so the seed changes the
   constants (and with them every hash, set order and random delivery
   choice) but not the shape of the input: per-seed spread measures the
   system, not the input size. *)
type renaming = { fwd : Value.t -> Value.t; inv : Value.t -> Value.t }

let renaming ~seed inst =
  let st = Random.State.make [| seed; 0x5eed |] in
  let used = Hashtbl.create 16 in
  let rec draw () =
    let x = 1000 + Random.State.int st 9000 in
    if Hashtbl.mem used x then draw ()
    else begin
      Hashtbl.add used x ();
      Value.Int x
    end
  in
  let pairs =
    List.map (fun v -> (v, draw ())) (Value.Set.elements (Instance.adom inst))
  in
  let lookup m v = Option.value (Value.Map.find_opt v m) ~default:v in
  let of_list l = Value.Map.of_seq (List.to_seq l) in
  let fwd = of_list pairs
  and inv = of_list (List.map (fun (a, b) -> (b, a)) pairs) in
  { fwd = lookup fwd; inv = lookup inv }

let rename r inst = Instance.map_values r.fwd inst

let transport ~traced r p =
  let open Network in
  let name = Policy.name p and schema = Policy.schema p in
  let network = Policy.network p in
  match Policy.domain_assignment p with
  | Some alpha ->
    let alpha v = alpha (r.inv v) in
    Policy.domain_guided ~name schema network
      (if traced then Tracer.wrap Tracer.Policy_assign alpha else alpha)
  | None ->
    let assign f = Policy.assign p (Fact.map_values r.inv f) in
    Policy.make ~name schema network
      (if traced then Tracer.wrap Tracer.Policy_assign assign else assign)

let counter name =
  List.fold_left
    (fun acc (r : Observe.Metrics.row) ->
      if r.Observe.Metrics.name = name && r.Observe.Metrics.labels = [] then
        acc + r.Observe.Metrics.count
      else acc)
    0
    (Observe.Metrics.snapshot (Observe.Metrics.current ()))

(* -- checks ------------------------------------------------------------ *)

let verdict_op ~bounds ~extra_bases q kind ~expect_violation =
  {
    label = q.Query.name ^ "/" ^ Classes.kind_to_string kind;
    exec =
      (fun ~jobs ->
        let probes0 = counter "monotone.probes" in
        let outcome =
          match
            (Checker.check_exhaustive ~bounds ~jobs kind q, extra_bases)
          with
          | (Checker.Violated _ as v), _ -> v
          | ok, [] -> ok
          | Checker.No_violation _, bases ->
            Checker.check_on_bases ~fresh:bounds.Checker.fresh
              ~max_ext:bounds.Checker.max_ext ~jobs kind q bases
        in
        let got = Checker.is_violation outcome in
        if got <> expect_violation then
          wrong "%s/%s: %s, expected %s" q.Query.name
            (Classes.kind_to_string kind)
            (if got then "violated" else "holds")
            (if expect_violation then "violated" else "holds");
        counter "monotone.probes" - probes0);
  }

(* [verdicts]: (query, kind, expected violation, extra bases). *)
let check_workload ~name ~bounds ~eval verdicts =
  let ops q_of =
    List.map
      (fun (q, kind, expect_violation, extra_bases) ->
        verdict_op ~bounds ~extra_bases (q_of q) kind ~expect_violation)
      verdicts
  in
  let plain = ops Fun.id and traced = ops (Tracer.query ~eval) in
  let capture () =
    let q, _, _, _ = List.hd verdicts in
    let bases =
      Enumerate.instances q.Query.input
        ~dom:(Enumerate.value_pool bounds.Checker.dom_size)
        ~max_facts:bounds.Checker.max_base
      |> Seq.filter (fun b -> Instance.cardinal b = bounds.Checker.max_base)
      |> Seq.take 64 |> List.of_seq
    in
    let pairs = List.map (fun b -> (Query.apply q b, b)) bases in
    {
      pairs;
      buffers = List.map (fun (s, _) -> Multiset.of_instance s) pairs;
      restrict_to = q.Query.input;
      net = None;
    }
  in
  {
    name;
    ops = (fun ~traced:t -> if t then traced else plain);
    pool_ops = false;
    owner = "monotone";
    capture;
  }

(* E1's battery: dom 3 (+3 fresh), bases <= 3 facts, extensions <= 3;
   the expected columns are the paper's (Figure 1). *)
let check_zoo scale =
  let bounds =
    match scale with
    | Full -> { Checker.dom_size = 3; fresh = 3; max_base = 3; max_ext = 3 }
    | Smoke -> { Checker.dom_size = 2; fresh = 3; max_base = 2; max_ext = 3 }
  in
  let rows =
    [
      (Zoo.tc, [ false; false; false ], []);
      (Zoo.comp_tc, [ true; true; false ], []);
      (Zoo.winmove, [ true; true; false ], []);
      ( Zoo.triangles_unless_two_disjoint,
        [ true; true; true ],
        [ Graph_gen.cycle 3 ] );
    ]
  in
  let kinds = [ Classes.Plain; Classes.Distinct; Classes.Disjoint ] in
  check_workload ~name:"check-zoo" ~bounds ~eval:Tracer.Query_eval
    (List.concat_map
       (fun (q, expect, extra) ->
         List.map2 (fun kind e -> (q, kind, e, extra)) kinds expect)
       rows)

(* E28's battery through Datalog.Program.query (the Ivm route): all
   three verdicts hold. *)
let check_programs scale =
  let bounds =
    match scale with
    | Full -> { Checker.dom_size = 3; fresh = 3; max_base = 3; max_ext = 2 }
    | Smoke -> { Checker.dom_size = 2; fresh = 2; max_base = 2; max_ext = 1 }
  in
  let prog name ?outputs src =
    Datalog.Program.query ~name (Datalog.Program.parse ?outputs src)
  in
  check_workload ~name:"check-programs" ~bounds ~eval:Tracer.Program_eval
    [
      ( prog "tc-prog" ~outputs:[ "T" ] Zoo.tc_program,
        Classes.Plain, false, [] );
      (prog "comp-tc-prog" Zoo.comp_tc_program, Classes.Disjoint, false, []);
      (prog "p1-prog" Zoo.example_51_p1, Classes.Disjoint, false, []);
    ]

(* -- network runs ---------------------------------------------------- *)

(* Up to 64 sampled node states of a final configuration, paired with
   the input. *)
let net_capture ~variant ~transducer ~input (config, policy) =
  let nodes = Value.Map.bindings config.Network.Config.state in
  let step = max 1 (List.length nodes / 64) in
  let sampled = List.filteri (fun i _ -> i mod step = 0) nodes in
  {
    pairs = List.map (fun (_, s) -> (s, input)) sampled;
    buffers =
      List.map (fun (x, _) -> Network.Config.buffer_of config x) sampled;
    restrict_to =
      transducer.Network.Transducer.schema.Network.Transducer_schema.output;
    net = Some { config; variant; policy; transducer; input };
  }

(* [last] keeps the final configuration of the latest run, and its
   policy. *)
let run_op ~label ~variant ~policy ~transducer ~input ~expected ~last sched =
  {
    label;
    exec =
      (fun ~jobs:_ ->
        let r = Network.Run.run ~variant ~policy ~transducer ~input sched in
        if not r.Network.Run.quiesced then wrong "%s: did not quiesce" label;
        if not (Instance.equal r.Network.Run.outputs expected) then
          wrong "%s: output %s, expected %s" label
            (Instance.to_string r.Network.Run.outputs)
            (Instance.to_string expected);
        last := Some (r.Network.Run.config, policy);
        r.Network.Run.transitions);
  }

(* Complement of the edge relation: the SP-Datalog (hence Mdistinct)
   query of the bench's F1 experiments. *)
let comp_edges =
  Query.make ~name:"comp-edges" ~input:Graph_gen.schema
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i ->
      let dom = Value.Set.elements (Instance.adom i) in
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc b ->
              if Instance.mem (Fact.make "E" [ a; b ]) i then acc
              else Instance.add (Fact.make "O" [ a; b ]) acc)
            acc dom)
        Instance.empty dom)

(* A group of runs of one compiled strategy: (label, policy, scheduler)
   cells, each one Run.run. Returns the plain and the traced operations
   and the microbench capture of the group's latest plain run. *)
let run_group ~level ~query ~input ~network ~policies ~schedulers ~r =
  let compiled = Calm_core.Compile.compile ~level query in
  let variant = compiled.Calm_core.Compile.variant in
  let transducer = compiled.Calm_core.Compile.transducer in
  let expected = Query.apply query input in
  let last = ref None in
  let ops traced =
    let transducer =
      if traced then Tracer.transducer transducer else transducer
    in
    List.concat_map
      (fun p ->
        let policy = transport ~traced r p in
        List.map
          (fun (sname, sched) ->
            run_op
              ~label:
                (query.Query.name ^ ":" ^ Network.Policy.name p ^ "/" ^ sname)
              ~variant ~policy ~transducer ~input ~expected
              ~last:(if traced then ref None else last)
              sched)
          schedulers)
      (policies compiled network)
  in
  let capture () =
    match !last with
    | Some run -> net_capture ~variant ~transducer ~input run
    | None -> invalid_arg "capture before the first run"
  in
  (ops false, ops true, capture)

let default_policies compiled network =
  Network.Netquery.default_policies
    ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
    compiled.Calm_core.Compile.query.Query.input network

(* calm sweep's grid on a 4-node network: broadcast/TC and
   absence/comp-edges over 5 policies x 3 schedulers, domain-request/
   win-move over its 3 domain-guided policies x 3 schedulers. *)
let sweep_battery scale ~seed =
  let network = Distributed.network_of_ints [ 101; 102; 103; 104 ] in
  let graph = Graph_gen.erdos_renyi ~seed:4 ~nodes:6 ~edges:9 in
  let game = Graph_gen.game ~seed:4 ~nodes:6 ~edges:9 in
  let rg = renaming ~seed graph and rm = renaming ~seed game in
  let schedulers =
    match scale with
    | Full -> Network.Netquery.default_schedulers
    | Smoke -> [ List.hd Network.Netquery.default_schedulers ]
  in
  let policies compiled network =
    match scale with
    | Full -> default_policies compiled network
    | Smoke -> [ List.hd (default_policies compiled network) ]
  in
  let group level query r input =
    run_group ~level ~query ~input:(rename r input) ~network ~policies
      ~schedulers ~r
  in
  let groups =
    [
      group Calm_core.Hierarchy.Monotone Zoo.tc rg graph;
      group Calm_core.Hierarchy.Domain_distinct comp_edges rg graph;
      group Calm_core.Hierarchy.Domain_disjoint Zoo.winmove rm game;
    ]
  in
  let plain = List.concat_map (fun (p, _, _) -> p) groups in
  let traced = List.concat_map (fun (_, t, _) -> t) groups in
  let _, _, capture = List.nth groups 1 in
  {
    name = "sweep-battery";
    ops = (fun ~traced:t -> if t then traced else plain);
    pool_ops = true;
    owner = "run";
    capture;
  }

(* calm run, round-robin, on a 400-node topology: TC compiled at the
   Monotone level (broadcast, oblivious model) under the single-node and
   hash-value policies. *)
let run_wide scale ~seed =
  let n = match scale with Full -> 400 | Smoke -> 40 in
  let network = Distributed.network_of_ints (List.init n (fun i -> 1 + i)) in
  let graph = Graph_gen.erdos_renyi ~seed:7 ~nodes:4 ~edges:3 in
  let r = renaming ~seed graph in
  let policies _ network =
    [
      Network.Policy.single Graph_gen.schema network (Value.Int 1);
      Network.Policy.hash_value Graph_gen.schema network;
    ]
  in
  let plain, traced, capture =
    run_group ~level:Calm_core.Hierarchy.Monotone ~query:Zoo.tc
      ~input:(rename r graph) ~network ~policies
      ~schedulers:[ ("round-robin", Network.Run.Round_robin) ]
      ~r
  in
  {
    name = "run-wide";
    ops = (fun ~traced:t -> if t then traced else plain);
    pool_ops = true;
    owner = "run";
    capture;
  }

(* calm explore on E19's largest row, domain-request/win-move on one
   move over 2 nodes, cut to a fixed configuration budget. *)
let explore_budget scale ~seed =
  let network = Distributed.network_of_ints [ 101; 102 ] in
  let game = Instance.of_strings [ "Move(5,6)" ] in
  let r = renaming ~seed game in
  let input = rename r game in
  let max_configs = match scale with Full -> 2000 | Smoke -> 150 in
  let variant = Network.Config.policy_aware in
  let base_policy =
    Network.Policy.hash_value Zoo.winmove.Query.input network
  in
  let transducer = Strategies.Domain_request.transducer Zoo.winmove in
  let op traced =
    let policy = transport ~traced r base_policy in
    let transducer =
      if traced then Tracer.transducer transducer else transducer
    in
    {
      label = "win-move:explore";
      exec =
        (fun ~jobs ->
          match
            Network.Explore.check ~max_configs ~jobs ~variant ~policy
              ~transducer ~query:Zoo.winmove ~input ()
          with
          | Network.Explore.Out_of_budget { configs }
          | Network.Explore.Consistent { configs } ->
            configs
          | v -> wrong "explore: %s" (Network.Explore.verdict_to_string v));
    }
  in
  let plain = [ op false ] and traced = [ op true ] in
  (* Explore returns no configuration; a round-robin run of the same
     network supplies one for the microbenches. *)
  let capture () =
    let policy = transport ~traced:false r base_policy in
    let res =
      Network.Run.run ~variant ~policy ~transducer ~input
        Network.Run.Round_robin
    in
    net_capture ~variant ~transducer ~input (res.Network.Run.config, policy)
  in
  {
    name = "explore-budget";
    ops = (fun ~traced:t -> if t then traced else plain);
    pool_ops = false;
    owner = "explore";
    capture;
  }

let make scale ~seed = function
  | "check-zoo" -> check_zoo scale
  | "check-programs" -> check_programs scale
  | "sweep-battery" -> sweep_battery scale ~seed
  | "run-wide" -> run_wide scale ~seed
  | "explore-budget" -> explore_budget scale ~seed
  | w -> invalid_arg ("unknown workload " ^ w)
