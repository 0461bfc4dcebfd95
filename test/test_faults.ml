(* Fault-injection battery: the eventual-correctness test wall.

   The paper's coordination-free strategies (Theorems 4.3–4.5) are
   correct under any fair run — including runs with duplicated,
   delayed/lost-and-retransmitted messages, crash/restart from the
   persistent input partition, and healing partitions. This battery
   pins that operationally: every zoo query × placement × scheduler ×
   fault plan cell must reach the same outputs as the failure-free
   round-robin oracle, the empirical coordination verdicts must not
   flip under faults, faulty causal traces must validate and their
   provenance cones replay, and a run under the empty plan must be
   byte-identical to a run without one. *)

open Relational
open Network
open Queries

let v = Value.int
let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual
let check_str name expected actual = Alcotest.(check string) name expected actual

let instance_testable = Alcotest.testable Instance.pp Instance.equal

let graph = Graph_gen.schema
let net3 = Distributed.network_of_ints [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Fault plans: one per fault type, plus the all-faults default. *)

let dup_plan = { Fault.none with seed = 3; dup_prob = 0.5; dup_copies = 3 }

let loss_plan =
  { Fault.none with seed = 4; loss_prob = 0.3; loss_delay = 2; horizon = 6 }

let crash_plan = { Fault.none with crashes = [ (v 2, 2) ] }

let part_plan =
  {
    Fault.none with
    partitions =
      [ { Fault.from_round = 1; rounds = 2; groups = [ [ v 1 ]; [ v 2; v 3 ] ] } ];
  }

let all_plan = Fault.default

let plans =
  [
    ("dup", dup_plan);
    ("loss", loss_plan);
    ("crash", crash_plan);
    ("part", part_plan);
    ("all", all_plan);
  ]

(* ------------------------------------------------------------------ *)
(* Plan grammar *)

let test_plan_roundtrip () =
  List.iter
    (fun (label, plan) ->
      match Fault.of_string (Fault.to_string plan) with
      | Ok plan' ->
        check_str (label ^ " round-trips") (Fault.to_string plan)
          (Fault.to_string plan')
      | Error m -> Alcotest.failf "%s: %s" label m)
    (("none", Fault.none) :: plans);
  (match Fault.of_string "seed=7;dup=0.4x3;loss=0.25:2;crash=2@4;part=1|2,3@2+3"
   with
  | Ok p ->
    check_bool "parsed plan has faults" false (Fault.is_none p);
    check_int "crash schedule parsed" 1 (List.length p.Fault.crashes)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Fault.of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad plan %S" bad
      | Error _ -> ())
    [ "dup=1.5"; "loss=0.2:0"; "crash=2"; "part=1|2"; "bogus=1"; "seed" ]

(* ------------------------------------------------------------------ *)
(* The headline battery: zoo queries × placements × schedulers × plans *)

let base_schedulers =
  [
    ("round_robin", Run.Round_robin);
    ("random", Run.Random { seed = 1; steps = 40 });
    ("stingy", Run.Stingy { seed = 2; steps = 60 });
    ("adversarial", Run.Adversarial { steps = 40 });
  ]

let battery_specs =
  [
    ( "tc",
      Calm_core.Hierarchy.Monotone,
      Zoo.tc,
      Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] );
    ( "comp_tc",
      Calm_core.Hierarchy.Domain_disjoint,
      Zoo.comp_tc,
      Graph_gen.of_edges [ (1, 2); (2, 3) ] );
    ( "winmove",
      Calm_core.Hierarchy.Domain_disjoint,
      Zoo.winmove,
      Calm_core.Empirical.winmove_input );
  ]

let battery_cells compiled =
  Netquery.grid
    (Netquery.default_policies
       ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
       compiled.Calm_core.Compile.query.Query.input net3)
    base_schedulers

(* One sweep per plan: every cell of a sweep runs under the same plan. *)
let battery_sweep ?jobs compiled input plan =
  Run.sweep ?jobs ~faults:plan ~variant:compiled.Calm_core.Compile.variant
    ~transducer:compiled.Calm_core.Compile.transducer ~input
    (battery_cells compiled)

let test_battery () =
  List.iter
    (fun (name, level, query, input) ->
      let compiled = Calm_core.Compile.compile ~level query in
      let oracle = Query.apply query input in
      (* The failure-free round-robin oracle equals Q(I). *)
      let policies =
        Netquery.default_policies
          ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
          compiled.Calm_core.Compile.query.Query.input net3
      in
      let r0 =
        Run.run ~variant:compiled.Calm_core.Compile.variant
          ~policy:(List.hd policies)
          ~transducer:compiled.Calm_core.Compile.transducer ~input
          Run.Round_robin
      in
      Alcotest.check instance_testable (name ^ ": oracle = Q(I)") oracle
        r0.Run.outputs;
      List.iter
        (fun (pname, plan) ->
          let results = battery_sweep compiled input plan in
          check_bool (name ^ ": battery is nonempty") true (results <> []);
          List.iter
            (fun (label, r, _events) ->
              check_bool
                (Printf.sprintf "%s/%s:%s quiesced" name label pname)
                true r.Run.quiesced;
              Alcotest.check instance_testable
                (Printf.sprintf "%s/%s:%s output = oracle" name label pname)
                oracle r.Run.outputs)
            results)
        plans)
    battery_specs

(* The all-faults slice of the battery is deterministic across --jobs:
   same results, same events, same stable metrics. *)
let test_battery_jobs_invariant () =
  let name, level, query, input = List.hd battery_specs in
  let compiled = Calm_core.Compile.compile ~level query in
  let sweep jobs =
    Observe.Metrics.reset Observe.Metrics.root;
    let results = battery_sweep ~jobs compiled input all_plan in
    let rendered =
      List.map
        (fun (label, r, events) ->
          ( label,
            Instance.to_string r.Run.outputs,
            r.Run.transitions,
            Trace.to_jsonl events ))
        results
    in
    (rendered, Observe.Metrics.render_stable Observe.Metrics.root)
  in
  let seq, seq_metrics = sweep 1 in
  check_bool (name ^ ": some faults actually struck") true
    (seq_metrics <> "");
  List.iter
    (fun jobs ->
      let par, par_metrics = sweep jobs in
      check_bool
        (Printf.sprintf "%s: results at jobs=%d = jobs=1" name jobs)
        true (par = seq);
      check_str
        (Printf.sprintf "%s: stable metrics at jobs=%d = jobs=1" name jobs)
        seq_metrics par_metrics)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* 10³-node topology: one battery axis at scale, via Parallel.Pool *)

let test_thousand_nodes () =
  let n = 1000 in
  let network = Distributed.network_of_ints (List.init n (fun i -> 1 + i)) in
  let input = Graph_gen.of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let query = Zoo.tc in
  let compiled =
    Calm_core.Compile.compile ~level:Calm_core.Hierarchy.Monotone query
  in
  let expected = Query.apply query input in
  let big_plan =
    {
      Fault.seed = 11;
      dup_prob = 0.3;
      dup_copies = 2;
      loss_prob = 0.2;
      loss_delay = 1;
      horizon = 3;
      crashes = [ (v 500, 1) ];
      partitions =
        [
          {
            Fault.from_round = 1;
            rounds = 2;
            groups =
              [
                List.init (n / 2) (fun i -> v (1 + i));
                List.init (n / 2) (fun i -> v (1 + (n / 2) + i));
              ];
          };
        ];
    }
  in
  let policies =
    [ Policy.single graph network (v 1); Policy.hash_value graph network ]
  in
  (* One sweep per plan, the two sweeps side by side: four cells in
     flight at once, as in a single four-job sweep. *)
  let sweep faults =
    Run.sweep ~jobs:2 ?faults ~variant:compiled.Calm_core.Compile.variant
      ~transducer:compiled.Calm_core.Compile.transducer ~input
      (Netquery.grid policies [ ("rr", Run.Round_robin) ])
  in
  let results =
    List.concat
      (Parallel.Pool.with_pool ~jobs:2 (fun pool ->
           Parallel.Pool.map pool sweep [ None; Some big_plan ]))
  in
  check_int "4 cells ran" 4 (List.length results);
  List.iter
    (fun (label, r, _) ->
      check_bool (label ^ " quiesced") true r.Run.quiesced;
      Alcotest.check instance_testable (label ^ " output") expected
        r.Run.outputs)
    results

(* ------------------------------------------------------------------ *)
(* heartbeat_prefix regression pin: rounds = steps taken, and
   quiesced=false exactly at max_steps when the state keeps growing *)

let growing_transducer =
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("O", 1) ])
      ~memory:(Schema.of_list [ ("C", 1) ])
      ()
  in
  Transducer.make ~schema
    ~ins:(fun d ->
      (* Memory grows by one fresh fact every transition: C(max+1). *)
      let m =
        List.fold_left
          (fun acc f ->
            match (Fact.rel f, Fact.arg f 0) with
            | "C", Value.Int i -> max acc i
            | _ -> acc)
          0 (Instance.to_list d)
      in
      Instance.of_list [ Fact.make "C" [ v (m + 1) ] ])
    ()

let test_heartbeat_pin () =
  let policy = Policy.single graph net3 (v 1) in
  let input = Graph_gen.of_edges [ (1, 2) ] in
  let max_steps = 7 in
  let r =
    Run.heartbeat_prefix ~max_steps ~variant:Config.policy_aware ~policy
      ~transducer:growing_transducer ~input ~node:(v 1) ()
  in
  check_int "transitions = max_steps" max_steps r.Run.transitions;
  check_int "rounds = steps taken" max_steps r.Run.rounds;
  check_bool "quiesced=false exactly at max_steps" false r.Run.quiesced;
  (* And a quiescing prefix still reports its step count. *)
  let t = Strategies.Broadcast.transducer Zoo.tc in
  let r' =
    Run.heartbeat_prefix ~max_steps:200 ~variant:Config.oblivious ~policy
      ~transducer:t ~input ~node:(v 1) ()
  in
  check_bool "broadcast heartbeat quiesces" true r'.Run.quiesced;
  check_int "rounds = steps taken (quiescing)" r'.Run.transitions r'.Run.rounds;
  check_bool "took fewer than max_steps" true (r'.Run.transitions < 200)

(* ------------------------------------------------------------------ *)
(* Empty fault plan ≡ base scheduler, byte for byte *)

let identity_compiled =
  Calm_core.Compile.compile ~level:Calm_core.Hierarchy.Monotone Zoo.tc

let identity_input = Graph_gen.of_edges [ (1, 2); (2, 3); (3, 4) ]

let run_rendered ?faults sched =
  Observe.Metrics.reset Observe.Metrics.root;
  let tracer = Trace.collector () in
  let policy = Policy.hash_value graph net3 in
  let r =
    Run.run ~tracer ?faults
      ~variant:identity_compiled.Calm_core.Compile.variant ~policy
      ~transducer:identity_compiled.Calm_core.Compile.transducer
      ~input:identity_input sched
  in
  ( Instance.to_string r.Run.outputs,
    (r.Run.transitions, r.Run.rounds, r.Run.messages_sent, r.Run.deliveries,
     r.Run.quiesced),
    Trace.to_jsonl (Trace.events tracer),
    Observe.Metrics.render_stable Observe.Metrics.root )

let prop_empty_plan_identity =
  QCheck2.Test.make ~name:"empty plan = no plan" ~count:15
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let base = Run.Stingy { seed; steps = 50 } in
      let plan = { Fault.none with seed = seed + 1 } in
      run_rendered base = run_rendered ~faults:plan base)

let test_empty_plan_identity_jobs () =
  let policy = Policy.hash_value graph net3 in
  let plan = { Fault.none with seed = 99 } in
  let cells =
    List.map (fun (sname, sched) -> (sname, policy, sched)) base_schedulers
  in
  let sweep ?faults jobs =
    Observe.Metrics.reset Observe.Metrics.root;
    let results =
      Run.sweep ~jobs ?faults
        ~variant:identity_compiled.Calm_core.Compile.variant
        ~transducer:identity_compiled.Calm_core.Compile.transducer
        ~input:identity_input cells
    in
    (* Labels differ by design: a plan appends "+faults". *)
    ( List.map
        (fun (_, r, events) ->
          (Instance.to_string r.Run.outputs, Trace.to_jsonl events))
        results,
      Observe.Metrics.render_stable Observe.Metrics.root )
  in
  let base_seq = sweep 1 in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "empty-plan sweep at jobs=%d = base at jobs=1" jobs)
        true
        (sweep ~faults:plan jobs = base_seq))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Causal traces of faulty runs: schema-valid, replayable cones *)

let faulty_traced_run () =
  let policy = Policy.hash_value graph net3 in
  let tracer = Trace.collector () in
  let r =
    Run.run ~tracer ~faults:all_plan
      ~variant:identity_compiled.Calm_core.Compile.variant ~policy
      ~transducer:identity_compiled.Calm_core.Compile.transducer
      ~input:identity_input Run.Round_robin
  in
  (policy, r, Trace.events tracer)

let test_faulty_trace_validates () =
  let _, r, events = faulty_traced_run () in
  check_bool "run quiesced" true r.Run.quiesced;
  (* The plan actually strikes: duplicated sends and a restart appear in
     the trace. *)
  check_bool "some event has dup > 1" true
    (List.exists (fun e -> e.Trace.dup > 1) events);
  check_bool "some event is a restart" true
    (List.exists (fun e -> e.Trace.restart) events);
  let doc = Trace.to_causal_json ~network:net3 events in
  (match Observe.Json.of_string doc with
  | Error m -> Alcotest.failf "causal doc is not JSON: %s" m
  | Ok j -> (
    match Observe.Schema_check.validate_causal j with
    | Ok () -> ()
    | Error m -> Alcotest.failf "causal doc rejected: %s" m));
  (* JSONL round-trip preserves the fault annotations. *)
  match Trace.of_jsonl (Trace.to_jsonl events) with
  | Error m -> Alcotest.failf "jsonl parse failed: %s" m
  | Ok events' ->
    check_str "jsonl roundtrip (fault fields included)"
      (Trace.to_jsonl events) (Trace.to_jsonl events')

let test_faulty_cones_replay () =
  let policy, r, events = faulty_traced_run () in
  let targets = Instance.to_list r.Run.outputs in
  check_bool "run produced outputs" true (targets <> []);
  List.iter
    (fun target ->
      match Provenance.cone_of events target with
      | None ->
        Alcotest.failf "%s has no cone in the trace" (Fact.to_string target)
      | Some cone -> (
        match
          Provenance.validate
            ~variant:identity_compiled.Calm_core.Compile.variant ~policy
            ~transducer:identity_compiled.Calm_core.Compile.transducer
            ~input:identity_input cone
        with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "cone of %s does not replay: %s"
            (Fact.to_string target) m))
    targets

(* ------------------------------------------------------------------ *)
(* Detection under faults: zoo stays AGREE, win-move flips per
   placement, forced-disagree pins exit code 2 *)

let test_zoo_agrees_under_faults () =
  let entries = Calm_core.Empirical.zoo ~jobs:2 ~faults:all_plan () in
  check_int "six zoo entries" 6 (List.length entries);
  List.iter
    (fun (en : Calm_core.Empirical.entry) ->
      check_bool
        (en.Calm_core.Empirical.name ^ ": agrees under faults")
        true en.Calm_core.Empirical.agree;
      check_int
        (en.Calm_core.Empirical.name ^ ": exit code 0 under faults")
        0
        (Calm_core.Empirical.exit_code en);
      check_bool
        (en.Calm_core.Empirical.name ^ ": battery labels are faulty")
        true
        (List.for_all
           (fun (vd : Calm_core.Empirical.policy_verdict) ->
             let l = vd.Calm_core.Empirical.label in
             String.length l >= 7
             && String.sub l (String.length l - 7) 7 = "+faults")
           en.Calm_core.Empirical.runs))
    entries;
  (* Win-move still flips with the placement under faults: the scatter
     runs coordinate, some co-located run stays free and correct. *)
  let wm =
    List.find
      (fun (en : Calm_core.Empirical.entry) ->
        en.Calm_core.Empirical.name = "winmove")
      entries
  in
  let scatter, colocated =
    List.partition
      (fun (vd : Calm_core.Empirical.policy_verdict) ->
        String.length vd.Calm_core.Empirical.label >= 8
        && String.sub vd.Calm_core.Empirical.label 0 8 = "scatter/")
      wm.Calm_core.Empirical.runs
  in
  check_bool "scatter cells present" true (scatter <> []);
  check_bool "every scatter run coordinates" true
    (List.for_all
       (fun (vd : Calm_core.Empirical.policy_verdict) ->
         vd.Calm_core.Empirical.coordinated)
       scatter);
  check_bool "some co-located run is free and correct" true
    (List.exists
       (fun (vd : Calm_core.Empirical.policy_verdict) ->
         vd.Calm_core.Empirical.correct && vd.Calm_core.Empirical.quiesced
         && not vd.Calm_core.Empirical.coordinated)
       colocated)

let test_forced_disagree_exit_codes () =
  let check_fixture label entry =
    check_bool (label ^ ": disagrees") false
      entry.Calm_core.Empirical.agree;
    check_int (label ^ ": exit code 2") 2
      (Calm_core.Empirical.exit_code entry);
    check_bool (label ^ ": every run has wrong output") true
      (List.for_all
         (fun (vd : Calm_core.Empirical.policy_verdict) ->
           not vd.Calm_core.Empirical.correct)
         entry.Calm_core.Empirical.runs)
  in
  check_fixture "failure-free" (Calm_core.Empirical.forced_disagree ());
  check_fixture "faulty"
    (Calm_core.Empirical.forced_disagree ~faults:all_plan ())

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_empty_plan_identity ]

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [ Alcotest.test_case "grammar roundtrip+rejects" `Quick
            test_plan_roundtrip ] );
      ( "battery",
        [
          Alcotest.test_case "zoo × placement × scheduler × plan wall"
            `Slow test_battery;
          Alcotest.test_case "all-faults slice jobs-invariant" `Slow
            test_battery_jobs_invariant;
          Alcotest.test_case "1000-node topology" `Slow test_thousand_nodes;
        ] );
      ( "heartbeat",
        [ Alcotest.test_case "prefix pin" `Quick test_heartbeat_pin ] );
      ( "identity",
        [
          Alcotest.test_case "empty plan sweep across jobs" `Quick
            test_empty_plan_identity_jobs;
        ]
        @ qcheck_cases );
      ( "causal",
        [
          Alcotest.test_case "faulty trace validates" `Quick
            test_faulty_trace_validates;
          Alcotest.test_case "faulty cones replay" `Quick
            test_faulty_cones_replay;
        ] );
      ( "detect",
        [
          Alcotest.test_case "zoo agrees under faults" `Slow
            test_zoo_agrees_under_faults;
          Alcotest.test_case "forced-disagree exit codes" `Quick
            test_forced_disagree_exit_codes;
        ] );
    ]
