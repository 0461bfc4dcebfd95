open Relational

type policy_verdict = {
  label : string;
  correct : bool;
  quiesced : bool;
  coordinated : bool;
}

type entry = {
  name : string;
  level : Hierarchy.level;
  static_free : bool;
  runs : policy_verdict list;
  observed_free : bool;
  agree : bool;
}

let default_network = Distributed.network_of_ints [ 1; 2; 3 ]

let detect_compiled ?network ?policies ?schedulers ?faults ?jobs ~name
    ~compiled ~input () =
  let network = Option.value network ~default:default_network in
  let query = compiled.Compile.query in
  let policies =
    match policies with
    | Some ps -> ps
    | None ->
      Network.Netquery.default_policies
        ~domain_guided_only:compiled.Compile.domain_guided_only
        query.Query.input network
  in
  let verdict, traces =
    Network.Netquery.check_traced ?schedulers ~policies ?faults ?jobs
      ~variant:compiled.Compile.variant ~transducer:compiled.Compile.transducer
      ~query ~input network
  in
  let runs =
    List.map2
      (fun (label, r) (_, events) ->
        {
          label;
          correct =
            Instance.equal r.Network.Run.outputs
              verdict.Network.Netquery.expected;
          quiesced = r.Network.Run.quiesced;
          coordinated = Network.Provenance.coordinated ~network events;
        })
      verdict.Network.Netquery.runs traces
  in
  let observed_free =
    List.exists (fun v -> v.correct && v.quiesced && not v.coordinated) runs
  in
  let static_free = compiled.Compile.level <> Hierarchy.Beyond in
  (* A coordination-free level promises Q(input) on every fair run under
     every policy of its model (Theorems 4.3/4.4), so one wrong run
     refutes the placement. *)
  let refuted = static_free && List.exists (fun v -> not v.correct) runs in
  {
    name;
    level = compiled.Compile.level;
    static_free;
    runs;
    observed_free;
    agree = observed_free = static_free && not refuted;
  }

let exit_code e = if e.agree then 0 else 2

let detect_query ?network ?policies ?schedulers ?faults ?jobs ~name ~level
    ~query ~input () =
  detect_compiled ?network ?policies ?schedulers ?faults ?jobs ~name
    ~compiled:(Compile.compile ~level query)
    ~input ()

(* The "bad" domain-guided policy: scatter consecutive integer values
   round-robin over the network, so any connected chain of data spans
   every node. *)
let scatter_policy schema network =
  let arr = Array.of_list network in
  let n = Array.length arr in
  let idx i = ((i mod n) + n) mod n in
  Network.Policy.domain_guided ~name:"scatter" schema network (fun v ->
      match v with
      | Value.Int i -> [ arr.(idx (i - 1)) ]
      | v -> [ arr.(idx (Value.hash v)) ])

let winmove_input =
  Instance.of_list
    [
      Fact.make "Move" [ Value.int 1; Value.int 2 ];
      Fact.make "Move" [ Value.int 2; Value.int 3 ];
      Fact.make "Move" [ Value.int 3; Value.int 4 ];
    ]

let graph_input edges =
  Instance.of_list
    (List.map
       (fun (a, b) -> Fact.make "E" [ Value.int a; Value.int b ])
       edges)

(* Inputs are chosen with nonempty query output: a run that outputs
   nothing is vacuously cut-free, which would make any placement look
   coordination-free. *)
let zoo ?jobs ?faults () =
  let network = default_network in
  let detect = detect_query ?jobs ?faults ~network in
  [
    detect ~name:"tc" ~level:Hierarchy.Monotone ~query:Queries.Zoo.tc
      ~input:(graph_input [ (1, 2); (2, 3); (5, 1) ])
      ();
    detect ~name:"comp_tc" ~level:Hierarchy.Domain_disjoint
      ~query:Queries.Zoo.comp_tc
      ~input:(graph_input [ (1, 2); (2, 3) ])
      ();
    (let query = Queries.Zoo.winmove in
     let policies =
       Network.Netquery.default_policies ~domain_guided_only:true
         query.Query.input network
       @ [ scatter_policy query.Query.input network ]
     in
     detect ~name:"winmove" ~level:Hierarchy.Domain_disjoint ~query
       ~policies ~input:winmove_input ());
    detect ~name:"q_clique3" ~level:Hierarchy.Beyond
      ~query:(Queries.Zoo.q_clique 3)
      ~input:(graph_input [ (1, 2); (2, 3) ])
      ();
    detect ~name:"q_star2" ~level:Hierarchy.Beyond
      ~query:(Queries.Zoo.q_star 2)
      ~input:(graph_input [ (1, 2); (3, 4) ])
      ();
    detect ~name:"triangles_u2d" ~level:Hierarchy.Beyond
      ~query:Queries.Zoo.triangles_unless_two_disjoint
      ~input:(graph_input [ (1, 2); (2, 3); (3, 1) ])
      ();
  ]

(* A fixture engineered to make the static and empirical verdicts
   disagree, pinning the detector's failure exit code: compile the
   non-monotone triangles-unless-two-disjoint query at the (wrong)
   Monotone level, so the broadcast strategy runs it. The input holds
   two vertex-disjoint triangles (values 1–3 and 4–6), so the expected
   output is empty — but the policy splits them onto different nodes,
   each node's very first transition sees only its own triangle (no
   disjoint pair locally) and wrongly outputs it, and broadcast output
   sections are append-only. Every run is incorrect, so the query is
   observed coordinated while the static level claims Monotone —
   DISAGREE, exit code 2.

   The disagreement survives any fault plan that does not crash {e
   both} triangle-holding nodes: duplication, loss, partitions, and
   crashes elsewhere cannot retract a premature wrong output (a crash
   of both nodes 1 and 2 would wipe them, and the restarts — now aware
   of the other triangle via the persistent edb and redelivery — would
   not reproduce them). {!Network.Fault.default} crashes only node 2. *)
let forced_disagree ?jobs ?faults () =
  let network = default_network in
  let nodes = Array.of_list network in
  let query = Queries.Zoo.triangles_unless_two_disjoint in
  let policy =
    Network.Policy.domain_guided ~name:"split" query.Query.input network
      (fun v ->
        match v with
        | Value.Int i when i <= 3 -> [ nodes.(0) ]
        | Value.Int _ -> [ nodes.(1) ]
        | _ -> [ nodes.(2) ])
  in
  detect_compiled ?jobs ?faults ~network ~policies:[ policy ]
    ~schedulers:[ ("round_robin", Network.Run.Round_robin) ]
    ~name:"forced_disagree"
    ~compiled:(Compile.compile ~level:Hierarchy.Monotone query)
    ~input:(graph_input [ (1, 2); (2, 3); (3, 1); (4, 5); (5, 6); (6, 4) ])
    ()

let pp_entry ppf e =
  let wrong = List.length (List.filter (fun v -> not v.correct) e.runs) in
  Format.fprintf ppf "@[<v 2>%s: static %s (%s), observed %s — %s@ " e.name
    (if e.static_free then "coordination-free" else "coordinated")
    (Hierarchy.to_string e.level)
    (if e.observed_free then "coordination-free" else "coordinated")
    (if e.agree then "AGREE"
     else if e.static_free && wrong > 0 then
       Printf.sprintf "DISAGREE (%d of %d runs of the coordination-free \
                       strategy output a wrong result)"
         wrong (List.length e.runs)
     else "DISAGREE");
  List.iter
    (fun v ->
      Format.fprintf ppf "%-32s %s%s%s@ " v.label
        (if v.coordinated then "coordinated" else "free")
        (if v.correct then "" else " [WRONG OUTPUT]")
        (if v.quiesced then "" else " [NO QUIESCENCE]"))
    e.runs;
  Format.fprintf ppf "@]"
