(* Unit tests for the evaluation-strategy plumbing: renaming helpers,
   system-relation accessors, the completeness predicates of the
   Mdistinct and Mdisjoint strategies, and the one-derivation-per-D
   invariants (a [Q_ins] of only what D lacks, a slot keyed on the input
   schema as well as D), on hand-crafted transition views [D]. The
   end-to-end behaviour is covered in test_network.ml. *)

open Relational
open Strategies
open Queries

let v = Value.int
let e a b = Graph_gen.edge a b
let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let instance_testable = Alcotest.testable Instance.pp Instance.equal

let graph = Graph_gen.schema
let net = Distributed.network_of_ints [ 1; 2 ]
let single_policy = Network.Policy.single graph net (v 1)

(* A hand-crafted D for node 1: local input, stored facts, delivered
   messages, and the policy-aware system facts over the A-set. *)
let craft_d ?(variant = Network.Config.policy_aware)
    ?(policy = single_policy) ~local ~mem ~msgs () =
  let j =
    Instance.union (Instance.of_list local)
      (Instance.union (Instance.of_list mem) (Instance.of_list msgs))
  in
  let a =
    List.fold_left
      (fun acc x -> Value.Set.add x acc)
      (Instance.adom j)
      (Distributed.network_of_ints [ 1; 2 ])
  in
  Instance.union j
    (Network.Config.system_facts variant policy
       (Distributed.network_of_ints [ 1; 2 ])
       (v 1) a)

(* ------------------------------------------------------------------ *)
(* Common *)

let test_rename_roundtrip () =
  let i = Instance.of_list [ e 1 2; e 3 4 ] in
  let renamed = Common.rename ~prefix:"Msg_" i in
  check_bool "renamed" true
    (Instance.for_all (fun f -> Fact.rel f = "Msg_E") renamed);
  Alcotest.check instance_testable "roundtrip" i
    (Common.unrename_input ~prefix:"Msg_" graph renamed Instance.empty);
  check_bool "unrename drops others" true
    (Instance.is_empty
       (Common.unrename_input ~prefix:"Got_" graph renamed Instance.empty))

let test_rename_schema () =
  let sg = Common.rename_schema ~prefix:"Got_" graph in
  Alcotest.(check (option int)) "Got_E/2" (Some 2) (Schema.arity sg "Got_E");
  check_bool "E gone" false (Schema.mem sg "E")

let test_my_id_and_adom () =
  let d = craft_d ~local:[ e 5 6 ] ~mem:[] ~msgs:[] () in
  check_bool "id" true (Common.my_id d = Some (v 1));
  let adom = Common.my_adom d in
  check_bool "has 5" true (Value.Set.mem (v 5) adom);
  check_bool "has node ids" true (Value.Set.mem (v 2) adom);
  (* No Id relation in the oblivious model. *)
  let d' =
    craft_d ~variant:Network.Config.oblivious ~local:[ e 5 6 ] ~mem:[]
      ~msgs:[] ()
  in
  check_bool "no id" true (Common.my_id d' = None)

let test_responsibility () =
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  (* Node 1 holds everything under the single policy. *)
  check_bool "fact responsibility" true (Common.responsible_fact d (e 1 2));
  check_bool "value responsibility" true
    (Common.responsible_value graph d (v 2));
  (* Facts outside A have no policy row. *)
  check_bool "outside A" false (Common.responsible_fact d (e 77 78))

let test_responsibility_split_policy () =
  let policy =
    Network.Policy.make ~name:"parity" graph net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "odd first attr is mine" true (Common.responsible_fact d (e 1 1));
  check_bool "even first attr is not" false (Common.responsible_fact d (e 2 1))

(* ------------------------------------------------------------------ *)
(* Broadcast *)

let test_broadcast_known () =
  let d =
    craft_d ~local:[ e 1 2 ]
      ~mem:[ Fact.make "Got_E" [ v 3; v 4 ] ]
      ~msgs:[ Fact.make "Msg_E" [ v 5; v 6 ] ]
      ()
  in
  Alcotest.check instance_testable "assembled"
    (Instance.of_list [ e 1 2; e 3 4; e 5 6 ])
    (Broadcast.known graph d)

let test_broadcast_delta_snd () =
  (* The delta variant suppresses re-sends of facts marked Sent_E. *)
  let t = Broadcast_delta.transducer Zoo.tc in
  let d =
    craft_d ~local:[ e 1 2; e 3 4 ]
      ~mem:[ Fact.make "Sent_E" [ v 1; v 2 ] ]
      ~msgs:[] ()
  in
  let sent = t.Network.Transducer.q_snd d in
  Alcotest.check instance_testable "only the unsent fact"
    (Instance.of_list [ Fact.make "Msg_E" [ v 3; v 4 ] ])
    sent

(* ------------------------------------------------------------------ *)
(* Absence *)

let test_certified_absences () =
  (* Node 1 responsible for everything, holding E(1,2): every other
     E-fact over A = {1,2} is certifiably absent. *)
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  let absences = Absence.certified_absences graph d in
  check_bool "E(2,1) certified" true (Instance.mem (e 2 1) absences);
  check_bool "E(1,2) not (present)" false (Instance.mem (e 1 2) absences);
  check_int "3 of 4 candidate facts" 3 (Instance.cardinal absences)

let test_absence_complete () =
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "complete when responsible for all" true
    (Absence.complete graph d);
  (* With a split policy, node 1 cannot certify even-first facts. *)
  let policy =
    Network.Policy.make ~name:"parity" graph net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d' = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "incomplete without certificates" false
    (Absence.complete graph d');
  (* Certificates for the even-first facts restore completeness: the
     absent E-facts over A = {1,2} with even first value. *)
  let certs =
    [ Fact.make "Abs_E" [ v 2; v 1 ]; Fact.make "Abs_E" [ v 2; v 2 ] ]
  in
  let d'' = craft_d ~policy ~local:[ e 1 2 ] ~mem:certs ~msgs:[] () in
  check_bool "complete with certificates" true (Absence.complete graph d'')

(* ------------------------------------------------------------------ *)
(* Domain request *)

let test_domain_request_collected () =
  let d =
    craft_d ~local:[ e 1 2 ]
      ~mem:[ Fact.make "Got_E" [ v 3; v 4 ] ]
      ~msgs:[ Fact.make "FMsg_E" [ v 5; v 6 ] ]
      ()
  in
  Alcotest.check instance_testable "collected"
    (Instance.of_list [ e 1 2; e 3 4; e 5 6 ])
    (Domain_request.collected graph d)

let test_domain_request_complete () =
  (* Responsible for every value under the single policy: complete. *)
  let d = craft_d ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "complete when responsible" true
    (Domain_request.complete graph d);
  (* Under a value-split policy node 1 owns odd values only; value 2 is
     unresolved until an OK arrives. *)
  let policy =
    Network.Policy.domain_guided ~name:"parity-values" graph net (fun value ->
        match value with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let d' = craft_d ~policy ~local:[ e 1 2 ] ~mem:[] ~msgs:[] () in
  check_bool "incomplete without OK" false (Domain_request.complete graph d');
  let oks =
    [ Fact.make "GotOk" [ v 1; v 2 ] ]
  in
  let d'' = craft_d ~policy ~local:[ e 1 2 ] ~mem:oks ~msgs:[] () in
  check_bool "complete with OK" true (Domain_request.complete graph d'')

(* ------------------------------------------------------------------ *)
(* One derivation per D *)

let memory (t : Network.Transducer.t) =
  t.Network.Transducer.schema.Network.Transducer_schema.memory

(* The memory [Config.react] keeps: D's memory facts and [Q_ins] ([Q_del]
   is empty for these strategies), clipped to the memory schema. *)
let next_memory t d ins =
  Instance.restrict
    (Instance.union (Instance.restrict d (memory t)) ins)
    (memory t)

(* The library transducer against the reference one on [d]: [Q_ins]
   holds no fact of [d] and adds what the reference's whole-D [Q_ins]
   adds; [Q_out], [Q_del] and [Q_snd] are the reference's. *)
let check_against_reference name ~lib ~reference d =
  let open Network.Transducer in
  let ins = lib.q_ins d in
  check_bool (name ^ ": Q_ins holds no fact of D") true
    (Instance.is_empty (Instance.inter ins d));
  Alcotest.check instance_testable
    (name ^ ": mem ∪ Q_ins = the reference's")
    (Instance.restrict (reference.q_ins d) (memory reference))
    (next_memory lib d ins);
  Alcotest.check instance_testable (name ^ ": Q_out") (reference.q_out d)
    (lib.q_out d);
  Alcotest.check instance_testable (name ^ ": Q_del") (reference.q_del d)
    (lib.q_del d);
  Alcotest.check instance_testable (name ^ ": Q_snd") (reference.q_snd d)
    (lib.q_snd d);
  ins

let parity_values =
  Network.Policy.domain_guided ~name:"parity-values" graph net (fun value ->
      match value with
      | Value.Int a when a mod 2 = 1 -> [ v 1 ]
      | _ -> [ v 2 ])

let got r args = Fact.make ("Got_" ^ r) (List.map v args)
let row r args = Fact.make r (List.map v args)

(* Each D stores memory facts of every kind its strategy keeps, and
   delivers some the node already stores next to new ones, so a [Q_ins]
   that re-added stored facts, or dropped a new one, shows. *)
let test_broadcast_delta_ins () =
  let mem = [ got "E" [ 3; 4 ]; got "E" [ 1; 2 ] ] in
  let d =
    craft_d ~local:[ e 1 2; e 7 8 ] ~mem
      ~msgs:[ row "Msg_E" [ 3; 4 ]; row "Msg_E" [ 5; 6 ] ]
      ()
  in
  let ins =
    check_against_reference "broadcast" ~lib:(Broadcast.transducer Zoo.tc)
      ~reference:(Refstrategies.Broadcast.transducer Zoo.tc)
      d
  in
  Alcotest.check instance_testable "only the new copies"
    (Instance.of_list [ got "E" [ 5; 6 ]; got "E" [ 7; 8 ] ])
    ins

let test_absence_delta_ins () =
  let policy =
    Network.Policy.make ~name:"parity" graph net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let mem =
    [
      got "E" [ 3; 4 ]; row "Abs_E" [ 2; 1 ]; row "Abs_E" [ 1; 1 ];
      row "SeenId" [ 2 ];
    ]
  in
  let d =
    craft_d ~policy ~local:[ e 1 2 ] ~mem
      ~msgs:
        [
          row "Msg_E" [ 3; 4 ]; row "Msg_E" [ 4; 3 ]; row "AbsMsg_E" [ 2; 1 ];
          row "AbsMsg_E" [ 2; 2 ]; row "IdMsg" [ 2 ];
        ]
      ()
  in
  let ins =
    check_against_reference "absence" ~lib:(Absence.transducer Zoo.comp_tc)
      ~reference:(Refstrategies.Absence.transducer Zoo.comp_tc)
      d
  in
  check_bool "new facts, absences and certificates" true
    (List.for_all
       (fun f -> Instance.mem f ins)
       [ got "E" [ 1; 2 ]; got "E" [ 4; 3 ]; row "Abs_E" [ 2; 2 ];
         row "Abs_E" [ 1; 3 ] ]);
  check_bool "no stored id again" false (Instance.mem (row "SeenId" [ 2 ]) ins)

let test_domain_request_delta_ins () =
  let mem =
    [
      got "E" [ 3; 4 ]; row "KnownVal" [ 1 ]; row "KnownVal" [ 2 ];
      row "GotReq" [ 2; 1 ]; row "GotOk" [ 1; 2 ];
      row "GotAck_E" [ 2; 1; 2 ];
    ]
  in
  let d =
    craft_d ~policy:parity_values ~local:[ e 1 2; e 1 4 ] ~mem
      ~msgs:
        [
          row "FMsg_E" [ 3; 4 ]; row "FMsg_E" [ 5; 6 ]; row "Req" [ 2; 1 ];
          row "Req" [ 2; 3 ]; row "OkMsg" [ 1; 2 ]; row "OkMsg" [ 1; 4 ];
          row "AckMsg_E" [ 2; 1; 2 ]; row "AckMsg_E" [ 2; 1; 4 ];
        ]
      ()
  in
  let ins =
    check_against_reference "domain-request"
      ~lib:(Domain_request.transducer Zoo.comp_tc)
      ~reference:(Refstrategies.Domain_request.transducer Zoo.comp_tc)
      d
  in
  Alcotest.check instance_testable "only the new rows"
    (Instance.of_list
       [
         got "E" [ 5; 6 ]; row "GotReq" [ 2; 3 ]; row "GotOk" [ 1; 4 ];
         row "GotAck_E" [ 2; 1; 4 ]; row "KnownVal" [ 3 ];
         row "KnownVal" [ 4 ]; row "KnownVal" [ 5 ]; row "KnownVal" [ 6 ];
       ])
    ins

(* Two queries of one strategy over different input schemas, their
   components called in turn on one physical D: each derivation must be
   the one of its own schema. [V] facts are local, stored, delivered,
   absent and certified, so a slot keyed on D alone hands the E-only
   derivation to the E+V transducer (or back). *)
let ev_schema = Schema.of_list [ ("E", 2); ("V", 1) ]

let ev_query =
  Query.make ~name:"v-copy" ~input:ev_schema
    ~output:(Schema.of_list [ ("O", 1) ])
    (fun i ->
      Instance.fold
        (fun f acc ->
          if Fact.rel f = "V" then
            Instance.add (Fact.make "O" (Fact.args f)) acc
          else acc)
        i Instance.empty)

let test_slot_keyed_on_schema () =
  let policy_all =
    Network.Policy.single ev_schema net (v 1)
  and policy_dg =
    Network.Policy.domain_guided ~name:"parity-values" ev_schema net
      (fun value ->
        match value with
        | Value.Int a when a mod 2 = 1 -> [ v 1 ]
        | _ -> [ v 2 ])
  in
  let cases =
    [
      ( "broadcast",
        policy_all,
        (fun q -> Broadcast.transducer q),
        fun q -> Refstrategies.Broadcast.transducer q );
      ( "absence",
        policy_all,
        (fun q -> Absence.transducer q),
        fun q -> Refstrategies.Absence.transducer q );
      ( "domain-request",
        policy_dg,
        (fun q -> Domain_request.transducer q),
        fun q -> Refstrategies.Domain_request.transducer q );
    ]
  in
  List.iter
    (fun (name, policy, lib, reference) ->
      let d =
        craft_d ~policy ~local:[ e 1 2; row "V" [ 1 ] ]
          ~mem:[ got "E" [ 3; 4 ]; got "V" [ 3 ]; row "Abs_V" [ 2 ] ]
          ~msgs:
            [
              row "Msg_V" [ 4 ]; row "FMsg_V" [ 4 ]; row "AbsMsg_V" [ 5 ];
              row "Req" [ 2; 1 ];
            ]
          ()
      in
      let pairs =
        [
          (lib Zoo.tc, reference Zoo.tc);
          (lib ev_query, reference ev_query);
        ]
      in
      let component c (t : Network.Transducer.t) =
        let open Network.Transducer in
        match c with
        | `Out -> t.q_out d
        | `Ins -> next_memory t d (t.q_ins d)
        | `Snd -> t.q_snd d
      in
      (* Out, Ins and Snd in turn, alternating the two transducers, twice
         over, so each call follows one by the other schema. *)
      List.iter
        (fun c ->
          List.iteri
            (fun i (lib_t, ref_t) ->
              let expected =
                match c with
                | `Ins ->
                  Instance.restrict
                    (ref_t.Network.Transducer.q_ins d)
                    (memory ref_t)
                | c -> component c ref_t
              in
              Alcotest.check instance_testable
                (Printf.sprintf "%s: transducer %d" name i)
                expected (component c lib_t))
            pairs)
        [ `Out; `Ins; `Snd; `Out; `Snd; `Ins ])
    cases

let () =
  Alcotest.run "strategies"
    [
      ( "common",
        [
          Alcotest.test_case "rename roundtrip" `Quick test_rename_roundtrip;
          Alcotest.test_case "rename schema" `Quick test_rename_schema;
          Alcotest.test_case "id and adom" `Quick test_my_id_and_adom;
          Alcotest.test_case "responsibility" `Quick test_responsibility;
          Alcotest.test_case "split responsibility" `Quick
            test_responsibility_split_policy;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "known" `Quick test_broadcast_known;
          Alcotest.test_case "delta snd" `Quick test_broadcast_delta_snd;
        ] );
      ( "absence",
        [
          Alcotest.test_case "certified absences" `Quick test_certified_absences;
          Alcotest.test_case "completeness" `Quick test_absence_complete;
        ] );
      ( "domain-request",
        [
          Alcotest.test_case "collected" `Quick test_domain_request_collected;
          Alcotest.test_case "completeness" `Quick test_domain_request_complete;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "broadcast Q_ins is Δ only" `Quick
            test_broadcast_delta_ins;
          Alcotest.test_case "absence Q_ins is Δ only" `Quick
            test_absence_delta_ins;
          Alcotest.test_case "domain-request Q_ins is Δ only" `Quick
            test_domain_request_delta_ins;
          Alcotest.test_case "slot keyed on the input schema" `Quick
            test_slot_keyed_on_schema;
        ] );
    ]
