(* Tests for the transducer-network simulator and the three evaluation
   strategies: Example 4.1, the transition semantics of Section 4.1.3,
   query computation (Section 4.1.4), coordination-freeness witnesses
   (Definition 3), and the constructive content of Theorems 4.3/4.4/4.5. *)

open Relational
open Network
open Queries

let v = Value.int
let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let instance_testable = Alcotest.testable Instance.pp Instance.equal

let net12 = Distributed.network_of_ints [ 1; 2 ]
let net_ab = Distributed.network_of_ints [ 10; 20 ]

let graph = Graph_gen.schema
let e a b = Graph_gen.edge a b

(* ------------------------------------------------------------------ *)
(* Example 4.1: the two distribution policies of the paper. *)

let example_input = Instance.of_list [ e 1 3; e 3 4; e 4 6 ]

let p1_first_attr_parity =
  (* P1: facts with odd first attribute to node 1, even to node 2. *)
  Policy.make ~name:"P1" graph net12 (fun f ->
      match Fact.arg f 0 with
      | Value.Int a when a mod 2 = 1 -> [ v 1 ]
      | _ -> [ v 2 ])

let p2_domain_guided =
  (* P2: domain assignment α(odd) = {1}, α(even) = {2}. *)
  Policy.domain_guided ~name:"P2" graph net12 (fun value ->
      match value with
      | Value.Int a when a mod 2 = 1 -> [ v 1 ]
      | _ -> [ v 2 ])

let test_example_41_p1 () =
  let h = Policy.dist p1_first_attr_parity example_input in
  Alcotest.check instance_testable "node 1"
    (Instance.of_list [ e 1 3; e 3 4 ])
    (Distributed.local h (v 1));
  Alcotest.check instance_testable "node 2"
    (Instance.of_list [ e 4 6 ])
    (Distributed.local h (v 2));
  check_bool "P1 not domain-guided" false
    (Policy.is_domain_guided p1_first_attr_parity)

let test_example_41_p2 () =
  let h = Policy.dist p2_domain_guided example_input in
  Alcotest.check instance_testable "node 1"
    (Instance.of_list [ e 1 3; e 3 4 ])
    (Distributed.local h (v 1));
  Alcotest.check instance_testable "node 2"
    (Instance.of_list [ e 3 4; e 4 6 ])
    (Distributed.local h (v 2));
  check_bool "P2 domain-guided" true (Policy.is_domain_guided p2_domain_guided)

let test_policy_constructors () =
  let i = Instance.of_list [ e 1 2; e 3 4 ] in
  let all = Policy.replicate_all graph net12 in
  let h = Policy.dist all i in
  Alcotest.check instance_testable "replicated" i (Distributed.local h (v 1));
  Alcotest.check instance_testable "replicated" i (Distributed.local h (v 2));
  let single = Policy.single graph net12 (v 2) in
  let h = Policy.dist single i in
  check_bool "node 1 empty" true (Instance.is_empty (Distributed.local h (v 1)));
  Alcotest.check instance_testable "node 2 has all" i
    (Distributed.local h (v 2));
  check_bool "single is domain-guided" true (Policy.is_domain_guided single);
  (* Every fact assigned somewhere under hash policies. *)
  List.iter
    (fun p ->
      Instance.iter
        (fun f -> check_bool "nonempty assignment" true (Policy.assign p f <> []))
        i)
    [ Policy.hash_fact graph net12; Policy.hash_value graph net12 ]

let test_policy_override () =
  let base = Policy.single graph net12 (v 1) in
  let p =
    Policy.override ~name:"override"
      ~on:(fun f -> Value.equal (Fact.arg f 0) (v 3))
      ~to_:[ v 2 ] base
  in
  check_bool "overridden" true (Policy.responsible p (v 2) (e 3 4));
  check_bool "not at 1" false (Policy.responsible p (v 1) (e 3 4));
  check_bool "others unchanged" true (Policy.responsible p (v 1) (e 1 2));
  check_bool "override not domain-guided" false (Policy.is_domain_guided p)

let test_policy_schema_guard () =
  Alcotest.(check bool) "bad fact rejected" true
    (match Policy.assign p2_domain_guided (Fact.make "X" [ v 1 ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Transducer schema *)

let test_schema_system () =
  let sys = Transducer_schema.system_schema graph in
  Alcotest.(check (option int)) "Id" (Some 1) (Schema.arity sys "Id");
  Alcotest.(check (option int)) "All" (Some 1) (Schema.arity sys "All");
  Alcotest.(check (option int)) "MyAdom" (Some 1) (Schema.arity sys "MyAdom");
  Alcotest.(check (option int)) "policy_E" (Some 2) (Schema.arity sys "policy_E")

let test_schema_disjointness () =
  match
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("E", 2) ])
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected disjointness failure"

(* ------------------------------------------------------------------ *)
(* Config transitions with a hand-built echo transducer *)

(* Echoes local input facts to output relation O and sends them as Msg_E;
   memorizes received facts in Got_E. *)
let echo_schema =
  Transducer_schema.make ~input:graph
    ~output:(Schema.of_list [ ("O", 2) ])
    ~message:(Schema.of_list [ ("Msg_E", 2) ])
    ~memory:(Schema.of_list [ ("Got_E", 2) ])
    ()

let rename_to to_rel i =
  Instance.fold
    (fun f acc -> Instance.add (Fact.make to_rel (Fact.args f)) acc)
    i Instance.empty

let echo =
  Transducer.make ~schema:echo_schema
    ~out:(fun d -> rename_to "O" (Instance.restrict d graph))
    ~ins:(fun d -> rename_to "Got_E" (Instance.restrict_rels d [ "Msg_E" ]))
    ~snd:(fun d -> rename_to "Msg_E" (Instance.restrict d graph))
    ()

let input12 = Instance.of_list [ e 1 2; e 2 3 ]

let test_transition_basic () =
  let policy = Policy.first_attribute graph net12 in
  (* first_attribute hash: just check mechanics, not placement. *)
  let c0 = Config.start net12 in
  let c1, stats =
    Config.heartbeat ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 c0 ~node:(v 1)
  in
  let local1 =
    Distributed.local (Policy.dist policy input12) (v 1)
  in
  Alcotest.check instance_testable "output echoes local input"
    (rename_to "O" local1)
    (Instance.restrict_rels (Config.state_of c1 (v 1)) [ "O" ]);
  check_int "messages = |local| copies to 1 other node"
    (Instance.cardinal local1) stats.Config.messages_sent;
  check_bool "node 2 got them" true
    (Multiset.size (Config.buffer_of c1 (v 2)) = Instance.cardinal local1);
  check_bool "node 1 buffer empty" true
    (Multiset.is_empty (Config.buffer_of c1 (v 1)))

let test_transition_delivery_and_memory () =
  let policy = Policy.single graph net12 (v 1) in
  let c0 = Config.start net12 in
  let c1, _ =
    Config.heartbeat ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 c0 ~node:(v 1)
  in
  (* Deliver everything to node 2. *)
  let deliver = Config.buffer_of c1 (v 2) in
  let c2, stats =
    Config.transition ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 c1 ~node:(v 2) ~deliver
  in
  check_int "delivered" 2 stats.Config.delivered;
  Alcotest.check instance_testable "memorized"
    (rename_to "Got_E" input12)
    (Instance.restrict_rels (Config.state_of c2 (v 2)) [ "Got_E" ]);
  check_bool "buffer drained" true (Multiset.is_empty (Config.buffer_of c2 (v 2)))

let test_transition_submultiset_guard () =
  let policy = Policy.single graph net12 (v 1) in
  let c0 = Config.start net12 in
  match
    Config.transition ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 c0 ~node:(v 2)
      ~deliver:(Multiset.of_list [ Fact.make "Msg_E" [ v 1; v 2 ] ])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected submultiset failure"

let test_insert_delete_semantics () =
  (* ins and del overlap: (mem ∪ (ins\del)) \ (del\ins). *)
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("O", 2) ])
      ~memory:(Schema.of_list [ ("Keep", 1); ("Both", 1); ("Drop", 1) ])
      ()
  in
  let t =
    Transducer.make ~schema
      ~ins:(fun _ ->
        Instance.of_list [ Fact.make "Keep" [ v 7 ]; Fact.make "Both" [ v 7 ] ])
      ~del:(fun _ ->
        Instance.of_list [ Fact.make "Both" [ v 7 ]; Fact.make "Drop" [ v 7 ] ])
      ()
  in
  let policy = Policy.single graph net12 (v 1) in
  let c0 = Config.start net12 in
  let c1, _ =
    Config.heartbeat ~variant:Config.policy_aware ~policy ~transducer:t
      ~input:Instance.empty c0 ~node:(v 1)
  in
  let mem = Config.state_of c1 (v 1) in
  check_bool "Keep inserted" true (Instance.mem (Fact.make "Keep" [ v 7 ]) mem);
  check_bool "Both no-op (absent)" false
    (Instance.mem (Fact.make "Both" [ v 7 ]) mem);
  check_bool "Drop absent" false (Instance.mem (Fact.make "Drop" [ v 7 ]) mem)

let test_system_facts_variants () =
  let policy = Policy.single graph net12 (v 1) in
  let a = Value.Set.of_list [ v 1; v 2; v 5 ] in
  let s_pa = Config.system_facts Config.policy_aware policy net12 (v 1) a in
  check_bool "Id" true (Instance.mem (Fact.make "Id" [ v 1 ]) s_pa);
  check_bool "All 2" true (Instance.mem (Fact.make "All" [ v 2 ]) s_pa);
  check_bool "MyAdom 5" true (Instance.mem (Fact.make "MyAdom" [ v 5 ]) s_pa);
  check_bool "policy_E present (responsible for everything)" true
    (Instance.mem (Fact.make "policy_E" [ v 5; v 5 ]) s_pa);
  let s_orig = Config.system_facts Config.original policy net12 (v 1) a in
  check_bool "original: no MyAdom" false
    (Instance.exists (fun f -> Fact.rel f = "MyAdom") s_orig);
  check_bool "original: no policy" false
    (Instance.exists (fun f -> Fact.rel f = "policy_E") s_orig);
  let s_af = Config.system_facts Config.all_free policy net12 (v 1) a in
  check_bool "all-free: no All" false
    (Instance.exists (fun f -> Fact.rel f = "All") s_af);
  let s_ob = Config.system_facts Config.oblivious policy net12 (v 1) a in
  check_bool "oblivious: empty" true (Instance.is_empty s_ob)

let test_policy_facts_restricted_to_adom () =
  (* "Safe" access: policy rows only over A (Section 4.1.2 footnote). *)
  let policy = Policy.single graph net12 (v 1) in
  let a = Value.Set.of_list [ v 1 ] in
  let s = Config.system_facts Config.policy_aware policy net12 (v 1) a in
  check_bool "policy over A only" false
    (Instance.mem (Fact.make "policy_E" [ v 9; v 9 ]) s)

(* ------------------------------------------------------------------ *)
(* Runs *)

let test_run_echo_quiesces () =
  let policy = Policy.first_attribute graph net12 in
  let r =
    Run.run ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 Run.Round_robin
  in
  check_bool "quiesced" true r.Run.quiesced;
  Alcotest.check instance_testable "all inputs echoed"
    (rename_to "O" input12)
    r.Run.outputs

let test_run_non_quiescing_reports () =
  (* A transducer that toggles a memory fact forever never quiesces; the
     runner reports it instead of looping. *)
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("O", 2) ])
      ~memory:(Schema.of_list [ ("Flag", 1) ])
      ()
  in
  let flag = Fact.make "Flag" [ v 0 ] in
  let toggler =
    Transducer.make ~schema
      ~ins:(fun d ->
        if Instance.mem flag d then Instance.empty
        else Instance.of_list [ flag ])
      ~del:(fun d ->
        if Instance.mem flag d then Instance.of_list [ flag ]
        else Instance.empty)
      ()
  in
  let policy = Policy.single graph net12 (v 1) in
  let r =
    Run.run ~max_rounds:20 ~variant:Config.policy_aware ~policy
      ~transducer:toggler ~input:input12 Run.Round_robin
  in
  check_bool "did not quiesce" false r.Run.quiesced;
  check_int "hit the round bound" 20 r.Run.rounds

let test_run_schedulers_agree () =
  let policy = Policy.first_attribute graph net12 in
  let out sched =
    (Run.run ~variant:Config.policy_aware ~policy ~transducer:echo
       ~input:input12 sched)
      .Run.outputs
  in
  let expected = rename_to "O" input12 in
  Alcotest.check instance_testable "round-robin" expected (out Run.Round_robin);
  Alcotest.check instance_testable "random" expected
    (out (Run.Random { seed = 3; steps = 40 }));
  Alcotest.check instance_testable "stingy" expected
    (out (Run.Stingy { seed = 4; steps = 60 }))

let test_trace_collection () =
  let policy = Policy.first_attribute graph net12 in
  let tracer = Trace.collector () in
  let r =
    Run.run ~tracer ~variant:Config.policy_aware ~policy ~transducer:echo
      ~input:input12 Run.Round_robin
  in
  let events = Trace.events tracer in
  check_int "one event per transition" r.Run.transitions (List.length events);
  check_bool "indices increase" true
    (List.for_all2
       (fun e i -> e.Trace.index = i)
       events
       (List.init (List.length events) (fun i -> i + 1)));
  let timeline = Trace.outputs_timeline tracer in
  check_int "every output fact appears once in the timeline"
    (Instance.cardinal r.Run.outputs)
    (List.length timeline);
  check_bool "summary renders" true
    (String.length (Format.asprintf "%a" (Trace.pp_summary ~limit:3) tracer) > 0)

(* ------------------------------------------------------------------ *)
(* Strategies: Theorem-level behaviour *)

let tc_input = Instance.of_list [ e 1 2; e 2 3; e 5 1 ]

let test_broadcast_computes_tc () =
  let t = Strategies.Broadcast.transducer Zoo.tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t ~query:Zoo.tc
      ~input:tc_input net12
  in
  check_bool
    (Printf.sprintf "consistent (mismatches: %s)"
       (String.concat "," verdict.Netquery.mismatches))
    true
    (Netquery.consistent verdict)

let test_broadcast_works_obliviously () =
  (* The M strategy uses no system relations at all (Corollary 4.6). *)
  let t = Strategies.Broadcast.transducer Zoo.tc in
  let verdict =
    Netquery.check ~variant:Config.oblivious ~transducer:t ~query:Zoo.tc
      ~input:tc_input net12
  in
  check_bool "consistent obliviously" true (Netquery.consistent verdict)

let test_broadcast_fails_comp_tc () =
  (* F0 ⊊ F1: the monotone strategy cannot compute the non-monotone Q_TC —
     partial views produce wrong (unretractable) outputs under partitioned
     policies and slow delivery. *)
  let t = Strategies.Broadcast.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.comp_tc ~input:tc_input net12
  in
  check_bool "some run is wrong" true (verdict.Netquery.mismatches <> [])

let test_broadcast_delta_computes_tc () =
  let t = Strategies.Broadcast_delta.transducer Zoo.tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t ~query:Zoo.tc
      ~input:tc_input net12
  in
  check_bool "consistent" true (Netquery.consistent verdict)

let test_broadcast_delta_sends_less () =
  let policy = Policy.hash_fact graph net12 in
  let messages t =
    (Run.run ~variant:Config.policy_aware ~policy ~transducer:t
       ~input:tc_input Run.Round_robin)
      .Run.messages_sent
  in
  let naive = messages (Strategies.Broadcast.transducer Zoo.tc) in
  let delta = messages (Strategies.Broadcast_delta.transducer Zoo.tc) in
  check_bool
    (Printf.sprintf "delta (%d) < naive (%d)" delta naive)
    true (delta < naive)

let test_absence_computes_comp_tc () =
  let t = Strategies.Absence.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.comp_tc ~input:tc_input net12
  in
  check_bool
    (Printf.sprintf "consistent (mismatches: %s)"
       (String.concat "," verdict.Netquery.mismatches))
    true
    (Netquery.consistent verdict)

let test_absence_needs_policy_relations () =
  (* In the original model (no policy_R), absences cannot be certified and
     Q_TC is under-computed: F0 ⊊ F1 from the other side. *)
  let t = Strategies.Absence.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.original ~transducer:t ~query:Zoo.comp_tc
      ~input:tc_input net12
  in
  check_bool "inconsistent without policy relations" true
    (verdict.Netquery.mismatches <> [])

let test_absence_all_free () =
  (* Theorem 4.5: the same transducer works without All. *)
  let t = Strategies.Absence.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.all_free ~transducer:t ~query:Zoo.comp_tc
      ~input:tc_input net12
  in
  check_bool "consistent without All" true (Netquery.consistent verdict)

(* Theorem 4.3 claims the absence strategy for Mdistinct queries only,
   and comp-TC is not in Mdistinct (E1, E6, E21). This input and
   schedule pin the F1 separation on comp-TC: the run quiesces with
   O(0,0) although 0->4->0 puts (0,0) in TC. *)
let test_absence_wrong_on_comp_tc () =
  let input = Instance.of_list [ e 0 4; e 1 0; e 1 4; e 4 0 ] in
  let r =
    Run.run ~variant:Config.policy_aware ~policy:(Policy.hash_fact graph net12)
      ~transducer:(Strategies.Absence.transducer Zoo.comp_tc)
      ~input
      (Run.Stingy { seed = 6; steps = 60 })
  in
  let o00 = Fact.make "O" [ v 0; v 0 ] in
  check_bool "quiesced" true r.Run.quiesced;
  check_bool "O(0,0) output" true (Instance.mem o00 r.Run.outputs);
  check_bool "O(0,0) not in comp-TC(I)" false
    (Instance.mem o00 (Query.apply Zoo.comp_tc input))

let winmove_input =
  Instance.of_list
    [
      Fact.make "Move" [ v 1; v 2 ];
      Fact.make "Move" [ v 2; v 3 ];
      Fact.make "Move" [ v 4; v 4 ];
    ]

let dg_policies schema net =
  Netquery.default_policies ~domain_guided_only:true schema net

let test_domain_request_computes_winmove () =
  let t = Strategies.Domain_request.transducer Zoo.winmove in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.winmove ~input:winmove_input
      ~policies:(dg_policies Zoo.winmove.Query.input net12)
      net12
  in
  check_bool
    (Printf.sprintf "consistent (mismatches: %s)"
       (String.concat "," verdict.Netquery.mismatches))
    true
    (Netquery.consistent verdict)

let test_domain_request_computes_comp_tc () =
  let t = Strategies.Domain_request.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.comp_tc ~input:tc_input
      ~policies:(dg_policies graph net12)
      net12
  in
  check_bool "consistent" true (Netquery.consistent verdict)

let test_domain_request_all_free () =
  let t = Strategies.Domain_request.transducer Zoo.winmove in
  let verdict =
    Netquery.check ~variant:Config.all_free ~transducer:t ~query:Zoo.winmove
      ~input:winmove_input
      ~policies:(dg_policies Zoo.winmove.Query.input net12)
      net12
  in
  check_bool "consistent without All" true (Netquery.consistent verdict)

let test_absence_wrong_on_winmove_partition () =
  (* F1 ⊊ F2 intuition: the Mdistinct strategy outputs from complete
     induced subinstances, which is unsound for win-move. We script the
     adversarial fair-run prefix explicitly: node 10 becomes complete on
     {1,2,4} while the message carrying Move(2,3) is still in flight, and
     wrongly outputs Win(1) (in the full game 2 wins via 3, so 1 loses). *)
  let t = Strategies.Absence.transducer Zoo.winmove in
  let move_schema = Zoo.winmove.Query.input in
  let base = Policy.single move_schema net_ab (v 10) in
  let policy =
    Policy.override ~name:"split"
      ~on:(fun f -> Value.equal (Fact.arg f 0) (v 2))
      ~to_:[ v 20 ] base
  in
  let step config node deliver =
    fst
      (Config.transition ~variant:Config.policy_aware ~policy ~transducer:t
         ~input:winmove_input config ~node ~deliver)
  in
  let abs args = Fact.make "AbsMsg_Move" (List.map v args) in
  (* 1. Node 10 heartbeats: broadcasts its facts and its absence
     certificates (it is responsible for every fact whose first value is
     not 2). *)
  let c = step (Config.start net_ab) (v 10) Multiset.empty in
  (* 2. Deliver to node 20 only two absences, teaching it values 1 and 4;
     it then certifies all Move(2,_) absences over {1,2,4,10,20} except
     the present Move(2,3). *)
  let teach = Multiset.of_list [ abs [ 1; 1 ]; abs [ 1; 4 ] ] in
  check_bool "teaching messages are in 20's buffer" true
    (Multiset.sub teach (Config.buffer_of c (v 20)));
  let c = step c (v 20) teach in
  (* 3. Deliver to node 10 exactly the five certificates it needs —
     Move(2,3) itself stays undelivered. *)
  let certs =
    Multiset.of_list
      [ abs [ 2; 1 ]; abs [ 2; 2 ]; abs [ 2; 4 ]; abs [ 2; 10 ]; abs [ 2; 20 ] ]
  in
  check_bool "certificates are in 10's buffer" true
    (Multiset.sub certs (Config.buffer_of c (v 10)));
  let c = step c (v 10) certs in
  let out = Config.outputs t.Transducer.schema c in
  let expected = Query.apply Zoo.winmove winmove_input in
  check_bool "premature output happened" false (Instance.is_empty out);
  check_bool "and it is wrong" false (Instance.subset out expected);
  check_bool "specifically Win(1)" true
    (Instance.mem (Fact.make "Win" [ v 1 ]) out)

(* ------------------------------------------------------------------ *)
(* Datalog-specified transducers (declarative networking) *)

(* Transitive closure as a declarative transducer: rules produce into the
   prefixed relations Out_T / Ins_Got_E / Snd_Msg_E. *)
let datalog_tc_transducer =
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("T", 2) ])
      ~message:(Schema.of_list [ ("Msg_E", 2) ])
      ~memory:(Schema.of_list [ ("Got_E", 2) ])
      ()
  in
  Transducer.of_datalog ~schema
    ~out:
      "K(x,y) :- E(x,y).  K(x,y) :- Got_E(x,y).  K(x,y) :- Msg_E(x,y).\n\
       Out_T(x,y) :- K(x,y).  Out_T(x,z) :- Out_T(x,y), K(y,z)."
    ~ins:
      "Ins_Got_E(x,y) :- E(x,y).  Ins_Got_E(x,y) :- Msg_E(x,y).\n\
       Ins_Got_E(x,y) :- Got_E(x,y)."
    ~snd:"Snd_Msg_E(x,y) :- E(x,y)."
    ()

let test_datalog_transducer_computes_tc () =
  let verdict =
    Netquery.check ~variant:Config.policy_aware
      ~transducer:datalog_tc_transducer ~query:Zoo.tc ~input:tc_input net12
  in
  check_bool
    (Printf.sprintf "consistent (mismatches: %s)"
       (String.concat "," verdict.Netquery.mismatches))
    true
    (Netquery.consistent verdict)

let test_datalog_transducer_memory_deletion () =
  (* A declarative transducer using deletion: memory holds a Pending
     marker per locally-stored edge until the edge has been broadcast
     once; the deletion rule clears it. *)
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("O", 2) ])
      ~message:(Schema.of_list [ ("Msg_E", 2) ])
      ~memory:(Schema.of_list [ ("Pending", 2); ("Sent", 2) ])
      ()
  in
  let t =
    Transducer.of_datalog ~schema
      ~ins:
        "Ins_Pending(x,y) :- E(x,y), not Sent(x,y).\n\
         Ins_Sent(x,y) :- Pending(x,y)."
      ~del:"Del_Pending(x,y) :- Pending(x,y)."
      ~snd:"Snd_Msg_E(x,y) :- Pending(x,y)."
      ()
  in
  let policy = Policy.single graph net12 (v 1) in
  let c0 = Config.start net12 in
  let step c =
    fst
      (Config.heartbeat ~variant:Config.policy_aware ~policy ~transducer:t
         ~input:input12 c ~node:(v 1))
  in
  let c1 = step c0 in
  check_bool "pending set after first beat" true
    (Instance.exists
       (fun f -> Fact.rel f = "Pending")
       (Config.state_of c1 (v 1)));
  let c2 = step c1 in
  (* Second beat: Pending was present, so edges are broadcast and marked
     Sent; the deletion rule clears Pending. *)
  check_bool "messages broadcast" false
    (Multiset.is_empty (Config.buffer_of c2 (v 2)));
  let c3 = step c2 in
  check_bool "pending cleared eventually" false
    (Instance.exists
       (fun f -> Fact.rel f = "Pending")
       (Config.state_of c3 (v 1)));
  check_bool "sent retained" true
    (Instance.exists (fun f -> Fact.rel f = "Sent") (Config.state_of c3 (v 1)))

let test_datalog_transducer_rejects_bad_source () =
  let schema =
    Transducer_schema.make ~input:graph
      ~output:(Schema.of_list [ ("T", 2) ])
      ()
  in
  match Transducer.of_datalog ~schema ~out:"Out_T(x,y) :- " () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected parse failure"

(* ------------------------------------------------------------------ *)
(* Coordination-freeness witnesses (Definition 3) *)

let test_netquery_verdict_shape () =
  (* A failing check names the offending policy/scheduler combinations. *)
  let t = Strategies.Broadcast.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.comp_tc ~input:tc_input net12
  in
  check_bool "not consistent" false (Netquery.consistent verdict);
  check_bool "labels have the policy/scheduler form" true
    (List.for_all
       (fun label -> String.contains label '/')
       verdict.Netquery.mismatches);
  check_int "runs = policies x schedulers" 15
    (List.length verdict.Netquery.runs);
  check_bool "expected is Q(I)" true
    (Instance.equal verdict.Netquery.expected
       (Query.apply Zoo.comp_tc tc_input))

let test_heartbeat_witness_broadcast () =
  let t = Strategies.Broadcast.transducer Zoo.tc in
  match
    Coordination.heartbeat_witness ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.tc ~input:tc_input net12
  with
  | Some w ->
    check_bool "no deliveries in prefix" true
      (w.Coordination.result.Run.deliveries = 0)
  | None -> Alcotest.fail "expected a witness"

let test_heartbeat_witness_absence () =
  let t = Strategies.Absence.transducer Zoo.comp_tc in
  check_bool "witness exists" true
    (Coordination.heartbeat_witness ~variant:Config.policy_aware
       ~transducer:t ~query:Zoo.comp_tc ~input:tc_input net12
    <> None)

let test_heartbeat_witness_domain_request () =
  let t = Strategies.Domain_request.transducer Zoo.winmove in
  check_bool "witness exists" true
    (Coordination.heartbeat_witness ~variant:Config.policy_aware
       ~transducer:t ~query:Zoo.winmove ~input:winmove_input net12
    <> None)

(* ------------------------------------------------------------------ *)
(* Three-node network sanity *)

let net123 = Distributed.network_of_ints [ 1; 2; 3 ]

let test_three_nodes () =
  let t = Strategies.Absence.transducer Zoo.comp_tc in
  let verdict =
    Netquery.check ~variant:Config.policy_aware ~transducer:t
      ~query:Zoo.comp_tc
      ~input:(Instance.of_list [ e 1 2; e 2 3 ])
      ~schedulers:
        [
          ("round-robin", Run.Round_robin);
          ("random", Run.Random { seed = 11; steps = 50 });
        ]
      net123
  in
  check_bool "consistent on 3 nodes" true (Netquery.consistent verdict)

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration (bounded model checking) *)

let parity_policy =
  (* first attribute odd -> node 1, even -> node 2: deterministic
     placement for the exploration tests. *)
  Policy.make ~name:"parity" graph net12 (fun f ->
      match Fact.arg f 0 with
      | Value.Int a when a mod 2 = 1 -> [ v 1 ]
      | _ -> [ v 2 ])

let test_explore_broadcast_consistent () =
  let input = Instance.of_list [ e 1 2; e 2 3 ] in
  let verdict =
    Explore.check ~variant:Config.oblivious ~policy:parity_policy
      ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
      ~query:Zoo.tc ~input ()
  in
  match verdict with
  | Explore.Consistent { configs } ->
    check_bool "explored more than a handful" true (configs > 10)
  | v -> Alcotest.fail (Explore.verdict_to_string v)

let comp_edges_for_explore =
  Query.make ~name:"comp-edges" ~input:graph
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

let test_explore_finds_wrong_output () =
  (* E(1,2) at node 1 and E(2,1) at node 2: node 1's partial view makes
     it output O(2,1), which the full input forbids. *)
  let input = Instance.of_list [ e 1 2; e 2 1 ] in
  let verdict =
    Explore.check ~variant:Config.policy_aware ~policy:parity_policy
      ~transducer:(Strategies.Broadcast.transducer comp_edges_for_explore)
      ~query:comp_edges_for_explore ~input ()
  in
  match verdict with
  | Explore.Wrong_output { extra; _ } ->
    check_bool "an O fact" true (Fact.rel extra = "O")
  | v -> Alcotest.fail ("expected wrong output, got " ^ Explore.verdict_to_string v)

let test_explore_finds_starvation () =
  (* A transducer that only outputs facts received as messages — but
     never sends any: it quiesces with the output missing. *)
  let identity_query =
    Query.make ~name:"identity" ~input:graph
      ~output:(Schema.of_list [ ("O", 2) ])
      (fun i -> rename_to "O" (Instance.restrict_rels i [ "E" ]))
  in
  let starving =
    Transducer.make ~schema:echo_schema
      ~out:(fun d -> rename_to "O" (Instance.restrict_rels d [ "Msg_E" ]))
      ()
  in
  let input = Instance.of_list [ e 1 2 ] in
  let verdict =
    Explore.check ~variant:Config.policy_aware ~policy:parity_policy
      ~transducer:starving ~query:identity_query ~input ()
  in
  match verdict with
  | Explore.Stuck { missing; _ } ->
    check_bool "an O fact missing" true (Fact.rel missing = "O")
  | v -> Alcotest.fail ("expected stuck, got " ^ Explore.verdict_to_string v)

let test_explore_absence_consistent () =
  let input = Instance.of_list [ e 1 2 ] in
  let verdict =
    Explore.check ~max_configs:50_000 ~variant:Config.policy_aware
      ~policy:parity_policy
      ~transducer:(Strategies.Absence.transducer comp_edges_for_explore)
      ~query:comp_edges_for_explore ~input ()
  in
  match verdict with
  | Explore.Consistent _ -> ()
  | v -> Alcotest.fail (Explore.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Theorem 4.5 proof technique: All-free indistinguishability *)

let comp_edges_query =
  Query.make ~name:"comp-edges" ~input:graph
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

let test_all_free_indistinguishability () =
  (* Without All, node x cannot tell a single-node network from a
     two-node network whose second node holds only the domain-distinct
     extension: its heartbeat-prefix states coincide (the core of the
     proof of Theorem 4.5 / A1 ⊆ Mdistinct). *)
  let t = Strategies.Absence.transducer comp_edges_query in
  let i = Instance.of_list [ e 1 2; e 2 3 ] in
  let j = Instance.of_list [ e 7 8 ] in
  let x = v 101 and y = v 102 in
  let single_net = Distributed.network_of_ints [ 101 ] in
  let p1 = Policy.single graph single_net x in
  let r1 =
    Run.heartbeat_prefix ~variant:Config.all_free ~policy:p1 ~transducer:t
      ~input:i ~node:x ()
  in
  let two_net = Distributed.network_of_ints [ 101; 102 ] in
  let p2 =
    Policy.override ~name:"j-to-y"
      ~on:(fun f -> Instance.mem f j)
      ~to_:[ y ]
      (Policy.single graph two_net x)
  in
  let r2 =
    Run.heartbeat_prefix ~variant:Config.all_free ~policy:p2 ~transducer:t
      ~input:(Instance.union i j) ~node:x ()
  in
  check_bool "x's states coincide" true
    (Instance.equal
       (Config.state_of r1.Run.config x)
       (Config.state_of r2.Run.config x));
  check_bool "x outputs Q(I) in both" true
    (Instance.equal r1.Run.outputs (Query.apply comp_edges_query i)
    && Instance.equal r2.Run.outputs (Query.apply comp_edges_query i));
  (* And with All visible the states differ: x sees node y. *)
  let r1' =
    Run.heartbeat_prefix ~variant:Config.policy_aware ~policy:p1 ~transducer:t
      ~input:i ~node:x ()
  in
  let r2' =
    Run.heartbeat_prefix ~variant:Config.policy_aware ~policy:p2 ~transducer:t
      ~input:(Instance.union i j) ~node:x ()
  in
  check_bool "with All the views differ" false
    (Instance.equal
       (Config.state_of r1'.Run.config x)
       (Config.state_of r2'.Run.config x))

let test_network_genericity () =
  (* Permuting the input permutes the distributed outputs: the simulator
     introduces no constants (run under a permutation-respecting single
     policy). *)
  let t = Strategies.Broadcast.transducer Zoo.tc in
  let input = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let pi =
    Homomorphism.random_permutation ~seed:5 (Instance.adom input)
  in
  let out_of i =
    let policy = Policy.single graph net12 (v 1) in
    (Run.run ~variant:Config.oblivious ~policy ~transducer:t ~input:i
       Run.Round_robin)
      .Run.outputs
  in
  check_bool "Q(pi I) = pi Q(I) through the network" true
    (Instance.equal
       (out_of (Homomorphism.apply pi input))
       (Homomorphism.apply pi (out_of input)))

(* ------------------------------------------------------------------ *)
(* Causal clocks, provenance, and empirical coordination *)

let traced_run ~variant ~policy ~transducer ~input sched =
  let tracer = Trace.collector () in
  let r = Run.run ~tracer ~variant ~policy ~transducer ~input sched in
  (r, Trace.events tracer)

(* Check the vector-clock laws on one recorded trace: hb is a strict
   partial order that contains program order, Lamport clocks and trace
   order are linear extensions of it, and — the strong claim — hb as
   decided by the vector clocks coincides with the transitive closure of
   the explicit program-order and message (origin) edges. *)
let check_causal_laws name events =
  check_bool (name ^ ": trace nonempty") true (events <> []);
  let arr = Array.of_list events in
  let n = Array.length arr in
  let stamp i = Trace.stamp arr.(i) in
  (* Explicit happens-before edges from the trace itself. *)
  let edge = Array.make_matrix n n false in
  let last : (Value.t, int) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun i (ev : Trace.event) ->
      check_bool (name ^ ": indexes are 1-based positions") true
        (ev.Trace.index = i + 1);
      (match Hashtbl.find_opt last ev.Trace.node with
      | Some j -> edge.(j).(i) <- true
      | None -> ());
      Hashtbl.replace last ev.Trace.node i;
      List.iter (fun (_, o) -> edge.(o - 1).(i) <- true) ev.Trace.origins)
    arr;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if edge.(i).(k) then
        for j = 0 to n - 1 do
          if edge.(k).(j) then edge.(i).(j) <- true
        done
    done
  done;
  let ok_closure = ref true and ok_order = ref true in
  for i = 0 to n - 1 do
    let si = stamp i in
    if Causal.hb si si then ok_order := false;
    for j = 0 to n - 1 do
      let sj = stamp j in
      if Causal.hb si sj <> edge.(i).(j) then ok_closure := false;
      if Causal.hb si sj then begin
        (* strictness + the two linear extensions *)
        if Causal.hb sj si then ok_order := false;
        if i >= j then ok_order := false;
        if si.Causal.lamport >= sj.Causal.lamport then ok_order := false;
        if Causal.concurrent si sj then ok_order := false
      end
    done
  done;
  check_bool (name ^ ": hb = closure of program+message edges") true
    !ok_closure;
  check_bool
    (name ^ ": hb strict; trace order and lamport are linear extensions")
    true !ok_order;
  (* The vector support names exactly the nodes of the causal past. *)
  let ok_support = ref true in
  for i = 0 to n - 1 do
    let expected = ref Value.Set.empty in
    for j = 0 to n - 1 do
      if j = i || edge.(j).(i) then
        expected := Value.Set.add arr.(j).Trace.node !expected
    done;
    if
      not
        (Value.Set.equal !expected
           (Value.Set.of_list (Causal.support (stamp i).Causal.vector)))
    then ok_support := false
  done;
  check_bool (name ^ ": vector support = nodes of the causal past") true
    !ok_support

let causal_zoo_cases =
  let tc_input = Instance.of_list [ e 1 2; e 2 3; e 3 4 ] in
  let game = Instance.of_strings [ "Move(1,2)"; "Move(2,3)"; "Move(3,4)" ] in
  [
    ( "broadcast/tc",
      Strategies.Broadcast.transducer Zoo.tc,
      Zoo.tc, Config.oblivious, Policy.hash_fact graph net12, tc_input );
    ( "absence/comp-tc",
      Strategies.Absence.transducer Zoo.comp_tc,
      Zoo.comp_tc, Config.policy_aware, Policy.hash_fact graph net12,
      Instance.of_list [ e 1 2; e 2 3 ] );
    ( "domain-request/comp-tc",
      Strategies.Domain_request.transducer Zoo.comp_tc,
      Zoo.comp_tc, Config.policy_aware, Policy.hash_value graph net12,
      Instance.of_list [ e 1 2; e 2 3 ] );
    ( "domain-request/winmove",
      Strategies.Domain_request.transducer Zoo.winmove,
      Zoo.winmove, Config.policy_aware,
      Policy.hash_value Zoo.winmove.Query.input net12, game );
  ]

let test_vector_clock_laws () =
  List.iter
    (fun (name, transducer, _query, variant, policy, input) ->
      List.iter
        (fun (sname, sched) ->
          let _, events = traced_run ~variant ~policy ~transducer ~input sched in
          check_causal_laws (name ^ "/" ^ sname) events)
        [
          ("rr", Run.Round_robin);
          ("random", Run.Random { seed = 11; steps = 60 });
        ])
    causal_zoo_cases

let test_provenance_replay_validates () =
  List.iter
    (fun (name, transducer, query, variant, policy, input) ->
      let r, events = traced_run ~variant ~policy ~transducer ~input
          Run.Round_robin
      in
      check_bool (name ^ ": quiesced") true r.Run.quiesced;
      check_bool (name ^ ": correct") true
        (Instance.equal r.Run.outputs (Query.apply query input));
      check_bool (name ^ ": has outputs to explain") false
        (Instance.is_empty r.Run.outputs);
      Instance.iter
        (fun fact ->
          match Provenance.cone_of events fact with
          | None ->
            Alcotest.failf "%s: no cone for %s" name (Fact.to_string fact)
          | Some cone ->
            check_bool (name ^ ": anchor outputs the fact") true
              (List.exists (Fact.equal fact)
                 cone.Provenance.anchor.Trace.output_delta);
            (match
               Provenance.validate ~variant ~policy ~transducer ~input cone
             with
            | Ok () -> ()
            | Error m ->
              Alcotest.failf "%s: cone of %s fails replay: %s" name
                (Fact.to_string fact) m))
        r.Run.outputs)
    causal_zoo_cases

let test_provenance_rejects_truncated_cone () =
  (* Dropping the origin of a delivered copy must break the replay: the
     delivery can no longer be matched to a pending send. *)
  let variant = Config.policy_aware in
  let transducer = Strategies.Domain_request.transducer Zoo.comp_tc in
  let policy = Policy.hash_value graph net12 in
  let input = Instance.of_list [ e 1 2; e 2 3 ] in
  let r, events = traced_run ~variant ~policy ~transducer ~input
      Run.Round_robin
  in
  let broken = ref 0 in
  Instance.iter
    (fun fact ->
      match Provenance.cone_of events fact with
      | None -> ()
      | Some cone ->
        (match cone.Provenance.anchor.Trace.origins with
        | [] -> ()
        | (_, o) :: _ ->
          let truncated =
            {
              cone with
              Provenance.events =
                List.filter
                  (fun (ev : Trace.event) -> ev.Trace.index <> o)
                  cone.Provenance.events;
            }
          in
          incr broken;
          check_bool
            (Fact.to_string fact ^ ": truncated cone fails validation")
            true
            (Result.is_error
               (Provenance.validate ~variant ~policy ~transducer ~input
                  truncated))))
    r.Run.outputs;
  check_bool "some cone actually exercised the negative path" true
    (!broken > 0)

let test_detect_winmove_policies () =
  (* The "sometimes coordinated" query: good placements give cut-free
     runs, the scattering placement forces every win's cone to span the
     network. *)
  let net3 = Distributed.network_of_ints [ 1; 2; 3 ] in
  let input = Instance.of_strings [ "Move(1,2)"; "Move(2,3)"; "Move(3,4)" ] in
  let transducer = Strategies.Domain_request.transducer Zoo.winmove in
  let schema = Zoo.winmove.Query.input in
  let coordinated policy =
    let r, events =
      traced_run ~variant:Config.policy_aware ~policy ~transducer ~input
        Run.Round_robin
    in
    check_bool (Policy.name policy ^ ": quiesced") true r.Run.quiesced;
    check_bool (Policy.name policy ^ ": correct") true
      (Instance.equal r.Run.outputs (Query.apply Zoo.winmove input));
    check_bool (Policy.name policy ^ ": every output has a cone") true
      (Instance.for_all
         (fun f -> Option.is_some (Provenance.cone_of events f))
         r.Run.outputs);
    Provenance.coordinated ~network:net3 events
  in
  check_bool "replicate-all run has no heard-from-all cut" false
    (coordinated (Policy.replicate_all schema net3));
  check_bool "single-node run has no heard-from-all cut" false
    (coordinated (Policy.single schema net3 (v 1)));
  check_bool "scatter run is empirically coordinated" true
    (coordinated (Calm_core.Empirical.scatter_policy schema net3))

let test_sweep_traces_jobs_identical () =
  let input = Instance.of_list [ e 1 2; e 2 3; e 3 4 ] in
  let transducer = Strategies.Broadcast.transducer Zoo.tc in
  let cells =
    List.concat_map
      (fun policy ->
        List.map
          (fun (sname, sched) ->
            (Policy.name policy ^ "/" ^ sname, policy, sched))
          Netquery.default_schedulers)
      (Netquery.default_policies graph net12)
  in
  let jsonl jobs =
    let results =
      Run.sweep ~jobs ~variant:Config.policy_aware ~transducer ~input cells
    in
    String.concat ""
      (List.of_seq
         (Trace.sweep_jsonl (List.map (fun (l, _, ev) -> (l, ev)) results)))
  in
  let baseline = jsonl 1 in
  check_bool "export nonempty" true (String.length baseline > 0);
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "causal JSONL at jobs=%d byte-identical to jobs=1"
           jobs)
        true
        (String.equal baseline (jsonl jobs)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 0 6 in
    let* edges = list_size (return n) (pair (int_range 0 4) (int_range 0 4)) in
    return (Graph_gen.of_edges edges))

let all_policies = Netquery.default_policies graph net12

let prop_dist_preserves_global =
  QCheck2.Test.make ~name:"dist_P(I) reassembles to I" ~count:150 gen_graph
    (fun i ->
      List.for_all
        (fun p -> Instance.equal (Distributed.global (Policy.dist p i)) i)
        all_policies)

let prop_dist_placement_matches_assign =
  QCheck2.Test.make ~name:"fact at node iff node in P(f)" ~count:100 gen_graph
    (fun i ->
      List.for_all
        (fun p ->
          let h = Policy.dist p i in
          Instance.for_all
            (fun f ->
              List.for_all
                (fun x ->
                  Instance.mem f (Distributed.local h x)
                  = Policy.responsible p x f)
                net12)
            i)
        all_policies)

let prop_domain_guided_assign_is_union_of_alpha =
  QCheck2.Test.make ~name:"domain-guided: P(f) = union of alpha(a)" ~count:100
    gen_graph (fun i ->
      let p = Policy.hash_value graph net12 in
      match Policy.domain_assignment p with
      | None -> false
      | Some alpha ->
        Instance.for_all
          (fun f ->
            let via_alpha =
              Value.Set.fold
                (fun a acc -> alpha a @ acc)
                (Fact.adom f) []
              |> List.sort_uniq Value.compare
            in
            via_alpha = Policy.assign p f)
          i)

(* On comp-edges, an Mdistinct query as Theorem 4.3 requires (comp-TC is
   not: see [test_absence_wrong_on_comp_tc]). *)
let prop_absence_confluent_on_random_inputs =
  QCheck2.Test.make ~name:"absence/comp-edges correct on random inputs & seeds"
    ~count:12 gen_graph (fun input ->
      let t = Strategies.Absence.transducer comp_edges_query in
      let expected = Query.apply comp_edges_query input in
      let policy = Policy.hash_fact graph net12 in
      List.for_all
        (fun sched ->
          let r =
            Run.run ~variant:Config.policy_aware ~policy ~transducer:t ~input
              sched
          in
          r.Run.quiesced && Instance.equal r.Run.outputs expected)
        [
          Run.Round_robin;
          Run.Random { seed = 5; steps = 40 };
          Run.Stingy { seed = 6; steps = 60 };
        ])

let prop_broadcast_confluent_on_random_inputs =
  QCheck2.Test.make ~name:"broadcast/tc correct on random inputs & seeds"
    ~count:20 gen_graph (fun input ->
      let t = Strategies.Broadcast.transducer Zoo.tc in
      let expected = Query.apply Zoo.tc input in
      let policy = Policy.hash_value graph net12 in
      List.for_all
        (fun seed ->
          let r =
            Run.run ~variant:Config.oblivious ~policy ~transducer:t ~input
              (Run.Random { seed; steps = 30 })
          in
          r.Run.quiesced && Instance.equal r.Run.outputs expected)
        [ 1; 2; 3 ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dist_preserves_global;
      prop_dist_placement_matches_assign;
      prop_domain_guided_assign_is_union_of_alpha;
      prop_absence_confluent_on_random_inputs;
      prop_broadcast_confluent_on_random_inputs;
    ]

(* ------------------------------------------------------------------ *)
(* Differential wall: the library's strategies through [Config.transition]
   and the prepared [Config.step] (range reads of D, memoised system
   facts) against the reference strategies ([Refstrategies]) through the
   whole-state reference transition ([Reftransition], unmemoised
   [Config.system_facts]), on random delivery sequences over every
   compiled strategy, variant and policy shape. The barrier strategy has
   no reference copy: it is its own. *)

let oracle_strategies =
  let q = Zoo.comp_tc in
  List.map
    (fun level ->
      let reference =
        match level with
        | Calm_core.Hierarchy.Monotone -> Refstrategies.Broadcast.transducer q
        | Calm_core.Hierarchy.Domain_distinct ->
          Refstrategies.Absence.transducer q
        | Calm_core.Hierarchy.Domain_disjoint ->
          Refstrategies.Domain_request.transducer q
        | Calm_core.Hierarchy.Beyond -> Strategies.Barrier.transducer q
      in
      ( Calm_core.Hierarchy.to_string level,
        (Calm_core.Compile.compile ~level q).Calm_core.Compile.transducer,
        reference ))
    Calm_core.Hierarchy.levels

let oracle_strategy_name i =
  let name, _, _ = List.nth oracle_strategies i in
  name

let oracle_variants =
  [
    ("original", Config.original);
    ("policy-aware", Config.policy_aware);
    ("all-free", Config.all_free);
    ("oblivious", Config.oblivious);
  ]

let oracle_policies net =
  let last = List.nth net (List.length net - 1) in
  [
    Policy.single graph net last;
    Policy.hash_value graph net;
    Policy.hash_fact graph net;
    Policy.first_attribute graph net;
    Policy.replicate_all graph net;
    Policy.override ~name:"override"
      ~on:(fun f -> Value.equal (Fact.arg f 0) (v 1))
      ~to_:[ List.hd net; last ]
      (Policy.hash_value graph net);
  ]

(* A delivery: nothing (a heartbeat), the whole buffer, a seeded random
   submultiset, or one seeded fact of the buffer. *)
let oracle_deliver kind seed buffer =
  let st = Random.State.make [| seed |] in
  match (kind, Multiset.to_list buffer) with
  | 0, _ | _, [] -> Multiset.empty
  | 1, _ -> buffer
  | 2, _ ->
    Multiset.fold
      (fun f n acc -> Multiset.add ~copies:(Random.State.int st (n + 1)) f acc)
      buffer Multiset.empty
  | _, l -> Multiset.of_list [ List.nth l (Random.State.int st (List.length l)) ]

let stats_equal (a : Config.stats) (b : Config.stats) =
  a.Config.messages_sent = b.Config.messages_sent
  && a.Config.delivered = b.Config.delivered
  && Instance.equal a.Config.sent_facts b.Config.sent_facts
  && Instance.equal a.Config.output_delta b.Config.output_delta

let outcome f =
  match f () with r -> Ok r | exception Invalid_argument m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok (c1, s1), Ok (c2, s2) -> Config.equal c1 c2 && stats_equal s1 s2
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

let gen_transition_case =
  QCheck2.Gen.(
    let* strategy = int_range 0 (List.length oracle_strategies - 1) in
    let* variant = int_range 0 (List.length oracle_variants - 1) in
    let* policy = int_range 0 5 in
    let* n = int_range 1 9 in
    let* input = gen_graph in
    let* steps =
      list_size (int_range 1 12)
        (triple (int_range 0 (n - 1)) (int_range 0 3) (int_range 0 1_000_000))
    in
    return (strategy, variant, policy, n, input, steps))

let print_transition_case (strategy, variant, policy, n, input, steps) =
  Printf.sprintf "%s/%s policy #%d on %d nodes, input %s, steps [%s]"
    (oracle_strategy_name strategy)
    (fst (List.nth oracle_variants variant))
    policy n (Instance.to_string input)
    (String.concat "; "
       (List.map
          (fun (i, k, seed) -> Printf.sprintf "(%d,%d,%d)" i k seed)
          steps))

let prop_transition_matches_reference =
  QCheck2.Test.make ~name:"prepared step = transition = whole-state reference"
    ~count:500 ~print:print_transition_case gen_transition_case
    (fun (strategy, variant, policy, n, input, steps) ->
      let net = Distributed.network_of_ints (List.init n (fun i -> i + 1)) in
      let _, transducer, reference = List.nth oracle_strategies strategy in
      let variant = snd (List.nth oracle_variants variant) in
      let policy = List.nth (oracle_policies net) policy in
      let ctx = Config.prepare ~variant ~policy ~transducer ~input in
      (* The reference's outcome, once all three paths agree on it. *)
      let agreed config ~node ~deliver =
        let reference =
          outcome (fun () ->
              Reftransition.transition ~variant ~policy ~transducer:reference
                ~input config ~node ~deliver)
        in
        let agree =
          same_outcome reference
            (outcome (fun () ->
                 Config.transition ~variant ~policy ~transducer ~input config
                   ~node ~deliver))
          && same_outcome reference
               (outcome (fun () -> Config.step ctx config ~node ~deliver))
        in
        if agree then Some reference else None
      in
      let rejected config ~node ~deliver =
        match agreed config ~node ~deliver with
        | Some (Error _) -> true
        | _ -> false
      in
      let rec go config = function
        | [] -> true
        | (i, kind, seed) :: rest -> (
          let node = List.nth net i in
          let buffer = Config.buffer_of config node in
          rejected config ~node:(v 0) ~deliver:Multiset.empty
          && rejected config ~node
               ~deliver:(Multiset.add (e 0 0) buffer)
          &&
          match agreed config ~node ~deliver:(oracle_deliver kind seed buffer) with
          | Some (Ok (config', _)) -> go config' rest
          | _ -> false)
      in
      go (Config.start net) steps)

(* The absence strategy's certificate read and completeness count
   against the reference enumeration over [MyAdom]^k, on hand-built D
   over an input schema with a binary and a unary relation. Each
   candidate fact over [MyAdom] is held locally, stored, delivered,
   stored or delivered absent, certified by a policy row (with or without
   the fact held), or left uncovered. Extra facts and policy rows may use
   values outside [MyAdom] or the wrong arity; the [MyAdom] rows or the
   policy rows may be missing altogether. *)

let absence_input = Schema.of_list [ ("E", 2); ("V", 1) ]

let gen_absence_d =
  QCheck2.Gen.(
    let policy_rel = Transducer_schema.policy_rel in
    let fact r args = Fact.make r (List.map v args) in
    let covering r args = function
      | 1 -> [ fact r args ]
      | 2 -> [ fact ("Got_" ^ r) args ]
      | 3 -> [ fact ("Msg_" ^ r) args ]
      | 4 -> [ fact ("Abs_" ^ r) args ]
      | 5 -> [ fact ("AbsMsg_" ^ r) args ]
      | 6 -> [ fact (policy_rel r) args ]
      | 7 -> [ fact (policy_rel r) args; fact r args ]
      | _ -> []
    in
    let* myadom =
      map (List.sort_uniq compare) (list_size (int_range 0 3) (int_range 0 3))
    in
    let candidates =
      List.concat_map
        (fun x -> List.map (fun y -> ("E", [ x; y ])) myadom)
        myadom
      @ List.map (fun x -> ("V", [ x ])) myadom
    in
    let* choices =
      list_repeat (List.length candidates)
        (frequency [ (1, return 0); (12, int_range 1 7) ])
    in
    let* extras =
      list_size (int_range 0 4)
        (let* kind = int_range 1 7 in
         let* r, arity =
           oneofl [ ("E", 2); ("V", 1); ("E", 1); ("V", 2); ("E", 3) ]
         in
         let* args = list_repeat arity (int_range 0 5) in
         return (covering r args kind))
    in
    let* keep_myadom = frequency [ (4, return true); (1, return false) ] in
    let* keep_policy = frequency [ (4, return true); (1, return false) ] in
    let facts =
      List.concat
        (List.map2 (fun (r, args) c -> covering r args c) candidates choices)
      @ List.concat extras
      @ (if keep_myadom then
           List.map (fun x -> fact Transducer_schema.myadom_rel [ x ]) myadom
         else [])
    in
    let policy_row f =
      String.starts_with ~prefix:(policy_rel "") (Fact.rel f)
    in
    return
      (Instance.of_list
         (if keep_policy then facts
          else List.filter (fun f -> not (policy_row f)) facts)))

let prop_absence_matches_reference =
  QCheck2.Test.make
    ~name:"absence certificates and completeness = reference on hand-built D"
    ~count:1000 ~print:Instance.to_string gen_absence_d (fun d ->
      Instance.equal
        (Strategies.Absence.certified_absences absence_input d)
        (Refstrategies.Absence.certified_absences absence_input d)
      && Bool.equal
           (Strategies.Absence.complete absence_input d)
           (Refstrategies.Absence.complete absence_input d))

(* ------------------------------------------------------------------ *)
(* Differential wall: [Explore.check] against the reference explorer ([Refexplore]: no reaction memo, a
   [Config.compare] visited set), on E19's four cells and on random tiny
   networks. Each side runs under a private collector, so the
   [explore.*] rows are compared along with the verdict. *)

let explored f =
  let buf = Observe.Metrics.create () in
  let verdict = Observe.Metrics.with_current buf f in
  let rows =
    String.split_on_char '\n' (Observe.Metrics.render_stable buf)
    |> List.filter (String.starts_with ~prefix:"explore.")
  in
  (verdict, rows)

(* Same constructor, count, fact and certificate configuration. *)
let same_verdict a b =
  match (a, b) with
  | Explore.Consistent { configs = x }, Explore.Consistent { configs = y }
  | Explore.Out_of_budget { configs = x }, Explore.Out_of_budget { configs = y }
    ->
    x = y
  | ( Explore.Wrong_output { config = c; extra = f },
      Explore.Wrong_output { config = c'; extra = f' } )
  | ( Explore.Stuck { config = c; missing = f },
      Explore.Stuck { config = c'; missing = f' } ) ->
    Config.equal c c' && Fact.equal f f'
  | _ -> false

(* The first disagreement with the reference, if any. *)
let explore_disagreement ~max_configs ~variant ~policy ~transducer ~query
    ~input =
  let ref_verdict, ref_rows =
    explored (fun () ->
        Refexplore.check ~max_configs ~variant ~policy ~transducer ~query
          ~input ())
  in
  let verdict, rows =
    explored (fun () ->
        Explore.check ~max_configs ~variant ~policy ~transducer ~query ~input
          ())
  in
  if same_verdict ref_verdict verdict && rows = ref_rows then None
  else
    Some
      (Printf.sprintf "%s [%s], reference %s [%s]"
         (Explore.verdict_to_string verdict)
         (String.concat "; " rows)
         (Explore.verdict_to_string ref_verdict)
         (String.concat "; " ref_rows))

(* The reference needs ~12 s for the domain-request cell's 11,601
   configurations, so the live comparison cuts that cell at the
   explore-budget workload's 2,000; its exhaustive answer, as the
   reference gives it, is pinned by the next case. *)
let test_explore_oracle_e19 () =
  List.iter
    (fun (name, (transducer, query, input, variant, policy)) ->
      let max_configs =
        if name = "domain-request/win-move" then 2_000 else 60_000
      in
      match
        explore_disagreement ~max_configs ~variant ~policy ~transducer ~query
          ~input
      with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" name m)
    Explore_cells.cells

let test_explore_domain_request_exhaustive () =
  let transducer, query, input, variant, policy =
    List.assoc "domain-request/win-move" Explore_cells.cells
  in
  let verdict, rows =
    explored (fun () ->
        Explore.check ~max_configs:60_000 ~variant ~policy ~transducer ~query
          ~input ())
  in
  check_bool "verdict" true
    (same_verdict verdict (Explore.Consistent { configs = 11_601 }));
  Alcotest.(check (list string))
    "explore rows"
    [
      "explore.dedup_hits counter count=120525 sum=120525 min=nan max=nan \
       last=nan";
      "explore.expanded counter count=11601 sum=11601 min=nan max=nan \
       last=nan";
      "explore.frontier histogram count=15 sum=11601 min=1 max=2467 last=4 \
       p50=384 p90=2304 p99=2304";
    ]
    rows

(* A one-node counter: each transition adds C(k+1) to the largest C(k)
   it holds (C(0) first) up to C(target), and O(1), all that Q outputs,
   is output only once C(target) is held, on round target + 2 of a fair
   continuation that starts at the empty state. Before that the
   continuation changes the state on every round. *)
let counter_case target =
  let one = Schema.of_list [ ("O", 1) ] in
  let o1 = Instance.of_list [ Fact.make "O" [ v 1 ] ] in
  let largest d =
    Instance.fold
      (fun f k ->
        match (Fact.rel f, Fact.arg f 0) with
        | "C", Value.Int c -> max c k
        | _ -> k)
      d (-1)
  in
  let transducer =
    Transducer.make
      ~schema:
        (Transducer_schema.make ~input:graph ~output:one
           ~memory:(Schema.of_list [ ("C", 1) ])
           ())
      ~ins:(fun d ->
        let k = largest d in
        if k < target then Instance.of_list [ Fact.make "C" [ v (k + 1) ] ]
        else Instance.empty)
      ~out:(fun d -> if largest d = target then o1 else Instance.empty)
      ()
  in
  let query = Query.make ~name:"O(1)" ~input:graph ~output:one (fun _ -> o1) in
  (transducer, query)

(* The continuation gives up after 200 rounds, as [Refexplore]'s does:
   at C(250) the start configuration is judged on the outputs it has
   then, stuck with the same certificate and [explore.*] rows. At C(198), O(1) comes on round 200, just in time (checked
   without the reference, which would take ~1 s here). *)
let test_explore_continuation_cap () =
  let net1 = Distributed.network_of_ints [ 1 ] in
  let policy = Policy.make ~name:"single" graph net1 (fun _ -> [ v 1 ]) in
  let variant = Config.oblivious and input = Instance.empty in
  let transducer, query = counter_case 250 in
  (match
     explore_disagreement ~max_configs:1_000 ~variant ~policy ~transducer
       ~query ~input
   with
  | None -> ()
  | Some m -> Alcotest.fail m);
  (match Explore.check ~variant ~policy ~transducer ~query ~input () with
  | Explore.Stuck { config; missing } ->
    check_bool "the start configuration" true
      (Config.equal config (Config.start net1));
    check_bool "O(1) missing" true
      (Fact.equal missing (Fact.make "O" [ v 1 ]))
  | v ->
    Alcotest.fail
      ("C(250): expected stuck, got " ^ Explore.verdict_to_string v));
  let transducer, query = counter_case 198 in
  match Explore.check ~variant ~policy ~transducer ~query ~input () with
  | Explore.Consistent _ -> ()
  | v ->
    Alcotest.fail
      ("C(198): expected consistent, got " ^ Explore.verdict_to_string v)

let explore_queries =
  [
    ("tc", Zoo.tc, "E");
    ("comp-tc", Zoo.comp_tc, "E");
    ("win-move", Zoo.winmove, "Move");
  ]

let explore_strategies =
  [
    ("broadcast", Strategies.Broadcast.transducer);
    ("absence", Strategies.Absence.transducer);
    ("domain-request", Strategies.Domain_request.transducer);
    ("barrier", Strategies.Barrier.transducer);
  ]

let explore_policies schema net =
  let first = List.hd net and last = List.nth net (List.length net - 1) in
  [
    Policy.single schema net last;
    Policy.hash_value schema net;
    Policy.hash_fact schema net;
    Policy.make ~name:"parity" schema net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ first ]
        | _ -> [ last ]);
  ]

let gen_explore_case =
  QCheck2.Gen.(
    let* strategy = int_range 0 (List.length explore_strategies - 1) in
    let* query = int_range 0 (List.length explore_queries - 1) in
    let* variant = int_range 0 (List.length oracle_variants - 1) in
    let* policy = int_range 0 3 in
    let* n = int_range 1 3 in
    let* facts =
      list_size (int_range 0 3) (pair (int_range 1 3) (int_range 1 3))
    in
    (* Log-uniform over 5–2,000: most cuts are cheap for the slow
       reference, and some still reach deep into the space. *)
    let* budget =
      map
        (fun x -> int_of_float (Float.exp x))
        (float_range (Float.log 5.) (Float.log 2_000.))
    in
    return (strategy, query, variant, policy, n, facts, budget))

let print_explore_case (strategy, query, variant, policy, n, facts, budget) =
  let qname, _, rel = List.nth explore_queries query in
  Printf.sprintf "%s/%s/%s policy #%d on %d nodes, input [%s], budget %d"
    (fst (List.nth explore_strategies strategy))
    qname
    (fst (List.nth oracle_variants variant))
    policy n
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "%s(%d,%d)" rel a b) facts))
    budget

let prop_explore_matches_reference =
  QCheck2.Test.make ~name:"explore = reference explore"
    ~count:40 ~print:print_explore_case gen_explore_case
    (fun (strategy, query, variant, policy, n, facts, budget) ->
      let _, query, rel = List.nth explore_queries query in
      let net = Distributed.network_of_ints (List.init n (fun i -> i + 1)) in
      let input =
        Instance.of_list
          (List.map (fun (a, b) -> Fact.make rel [ v a; v b ]) facts)
      in
      match
        explore_disagreement ~max_configs:budget
          ~variant:(snd (List.nth oracle_variants variant))
          ~policy:(List.nth (explore_policies query.Query.input net) policy)
          ~transducer:(snd (List.nth explore_strategies strategy) query)
          ~query ~input
      with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

let () =
  Alcotest.run "network"
    [
      ( "policy",
        [
          Alcotest.test_case "example 4.1 P1" `Quick test_example_41_p1;
          Alcotest.test_case "example 4.1 P2" `Quick test_example_41_p2;
          Alcotest.test_case "constructors" `Quick test_policy_constructors;
          Alcotest.test_case "override" `Quick test_policy_override;
          Alcotest.test_case "schema guard" `Quick test_policy_schema_guard;
        ] );
      ( "schema",
        [
          Alcotest.test_case "system schema" `Quick test_schema_system;
          Alcotest.test_case "disjointness" `Quick test_schema_disjointness;
        ] );
      ( "config",
        [
          Alcotest.test_case "basic transition" `Quick test_transition_basic;
          Alcotest.test_case "delivery and memory" `Quick
            test_transition_delivery_and_memory;
          Alcotest.test_case "submultiset guard" `Quick
            test_transition_submultiset_guard;
          Alcotest.test_case "insert/delete semantics" `Quick
            test_insert_delete_semantics;
          Alcotest.test_case "system facts per variant" `Quick
            test_system_facts_variants;
          Alcotest.test_case "policy rows over A only" `Quick
            test_policy_facts_restricted_to_adom;
        ] );
      ( "run",
        [
          Alcotest.test_case "echo quiesces" `Quick test_run_echo_quiesces;
          Alcotest.test_case "schedulers agree" `Quick test_run_schedulers_agree;
          Alcotest.test_case "trace collection" `Quick test_trace_collection;
          Alcotest.test_case "non-quiescing reported" `Quick
            test_run_non_quiescing_reports;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "broadcast computes TC" `Slow
            test_broadcast_computes_tc;
          Alcotest.test_case "broadcast oblivious" `Slow
            test_broadcast_works_obliviously;
          Alcotest.test_case "broadcast fails comp-TC" `Slow
            test_broadcast_fails_comp_tc;
          Alcotest.test_case "broadcast-delta computes TC" `Slow
            test_broadcast_delta_computes_tc;
          Alcotest.test_case "broadcast-delta sends less" `Quick
            test_broadcast_delta_sends_less;
          Alcotest.test_case "absence computes comp-TC" `Slow
            test_absence_computes_comp_tc;
          Alcotest.test_case "absence needs policy rels" `Slow
            test_absence_needs_policy_relations;
          Alcotest.test_case "absence works All-free" `Slow
            test_absence_all_free;
          Alcotest.test_case "absence wrong on comp-TC (F1 separation)" `Quick
            test_absence_wrong_on_comp_tc;
          Alcotest.test_case "domain-request computes win-move" `Slow
            test_domain_request_computes_winmove;
          Alcotest.test_case "domain-request computes comp-TC" `Slow
            test_domain_request_computes_comp_tc;
          Alcotest.test_case "domain-request works All-free" `Slow
            test_domain_request_all_free;
          Alcotest.test_case "absence unsound for win-move" `Slow
            test_absence_wrong_on_winmove_partition;
        ] );
      ( "datalog-transducer",
        [
          Alcotest.test_case "computes TC" `Slow
            test_datalog_transducer_computes_tc;
          Alcotest.test_case "memory deletion" `Quick
            test_datalog_transducer_memory_deletion;
          Alcotest.test_case "bad source rejected" `Quick
            test_datalog_transducer_rejects_bad_source;
        ] );
      ( "coordination",
        [
          Alcotest.test_case "netquery verdict shape" `Slow
            test_netquery_verdict_shape;
          Alcotest.test_case "witness: broadcast/tc" `Quick
            test_heartbeat_witness_broadcast;
          Alcotest.test_case "witness: absence/comp-tc" `Quick
            test_heartbeat_witness_absence;
          Alcotest.test_case "witness: domain-request/win-move" `Quick
            test_heartbeat_witness_domain_request;
        ] );
      ( "multi-node",
        [ Alcotest.test_case "three nodes" `Slow test_three_nodes ] );
      ( "explore",
        [
          Alcotest.test_case "broadcast consistent" `Slow
            test_explore_broadcast_consistent;
          Alcotest.test_case "finds wrong output" `Quick
            test_explore_finds_wrong_output;
          Alcotest.test_case "finds starvation" `Quick
            test_explore_finds_starvation;
          Alcotest.test_case "absence consistent" `Slow
            test_explore_absence_consistent;
        ] );
      ( "causal",
        [
          Alcotest.test_case "vector-clock laws" `Slow test_vector_clock_laws;
          Alcotest.test_case "provenance replay validates" `Slow
            test_provenance_replay_validates;
          Alcotest.test_case "truncated cone rejected" `Quick
            test_provenance_rejects_truncated_cone;
          Alcotest.test_case "win-move detector per policy" `Slow
            test_detect_winmove_policies;
          Alcotest.test_case "sweep traces byte-identical under jobs" `Slow
            test_sweep_traces_jobs_identical;
        ] );
      ( "theorem-4.5",
        [
          Alcotest.test_case "All-free indistinguishability" `Quick
            test_all_free_indistinguishability;
          Alcotest.test_case "genericity through the network" `Quick
            test_network_genericity;
        ] );
      ("properties", qcheck_cases);
      ( "transition-oracle",
        [
          QCheck_alcotest.to_alcotest prop_transition_matches_reference;
          QCheck_alcotest.to_alcotest prop_absence_matches_reference;
        ] );
      ( "explore-oracle",
        [
          Alcotest.test_case "E19 cells" `Slow
            test_explore_oracle_e19;
          Alcotest.test_case "E19 domain-request exhaustive" `Slow
            test_explore_domain_request_exhaustive;
          Alcotest.test_case "continuation cap at 200 rounds" `Quick
            test_explore_continuation_cap;
          QCheck_alcotest.to_alcotest prop_explore_matches_reference;
        ] );
    ]
