(* Tests for the calm_core umbrella: hierarchy placement, compilation to
   coordination-free transducers, end-to-end verification, reporting. *)

open Relational
open Calm_core
open Queries

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let small_bounds =
  { Monotone.Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }

let net = Distributed.network_of_ints [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let test_level_order () =
  check_bool "M <= Mdistinct" true
    (Hierarchy.leq Hierarchy.Monotone Hierarchy.Domain_distinct);
  check_bool "Mdisjoint <= C" true
    (Hierarchy.leq Hierarchy.Domain_disjoint Hierarchy.Beyond);
  check_bool "not C <= M" false
    (Hierarchy.leq Hierarchy.Beyond Hierarchy.Monotone);
  Alcotest.(check int) "four levels" 4 (List.length Hierarchy.levels)

let test_of_fragment () =
  let open Datalog in
  let level src = Hierarchy.of_fragment (Fragment.classify (Parser.parse_program src)) in
  check_bool "tc -> M" true (level Zoo.tc_program = Hierarchy.Monotone);
  check_bool "sp -> Mdistinct" true
    (level "O(x) :- V(x), not E(x,x)." = Hierarchy.Domain_distinct);
  check_bool "comp-tc (semicon) -> Mdisjoint" true
    (Hierarchy.of_fragment
       (Fragment.classify (Adom.augment (Parser.parse_program Zoo.comp_tc_program)))
    = Hierarchy.Domain_disjoint);
  check_bool "P2 -> Beyond" true
    (Hierarchy.of_fragment
       (Fragment.classify (Adom.augment (Parser.parse_program Zoo.example_51_p2)))
    = Hierarchy.Beyond)

let test_empirical_placement () =
  check_bool "tc empirically M" true
    (Hierarchy.place_empirically ~bounds:small_bounds Zoo.tc
    = Hierarchy.Monotone);
  check_bool "comp-tc empirically Mdisjoint" true
    (Hierarchy.place_empirically ~bounds:small_bounds Zoo.comp_tc
    = Hierarchy.Domain_disjoint);
  check_bool "winmove empirically Mdisjoint" true
    (Hierarchy.place_empirically
       ~bounds:{ small_bounds with Monotone.Checker.max_base = 2 }
       Zoo.winmove
    = Hierarchy.Domain_disjoint)

let test_placement_of_program () =
  let p = Datalog.Program.parse Zoo.comp_tc_program in
  let syntactic, empirical =
    Hierarchy.placement_of_program ~bounds:small_bounds p
  in
  check_bool "syntactic Mdisjoint" true (syntactic = Hierarchy.Domain_disjoint);
  check_bool "empirical within syntactic" true (Hierarchy.leq empirical syntactic)

(* ------------------------------------------------------------------ *)
(* Compile + Verify *)

let tc_inputs = [ Instance.empty; Graph_gen.path 3 ]

let test_compile_monotone () =
  let c = Compile.compile ~level:Hierarchy.Monotone Zoo.tc in
  let r = Verify.check c ~inputs:tc_inputs net in
  check_bool "consistent" true r.Verify.consistent;
  check_bool "coordination-free" true r.Verify.coordination_free

let test_compile_distinct () =
  let c = Compile.compile ~level:Hierarchy.Domain_distinct Zoo.comp_tc in
  let r = Verify.check c ~inputs:[ Graph_gen.path 3 ] net in
  check_bool "consistent" true r.Verify.consistent;
  check_bool "coordination-free" true r.Verify.coordination_free

let test_compile_disjoint_winmove () =
  let c = Compile.compile ~level:Hierarchy.Domain_disjoint Zoo.winmove in
  check_bool "domain-guided only" true c.Compile.domain_guided_only;
  let input = Graph_gen.game ~seed:3 ~nodes:4 ~edges:5 in
  let r = Verify.check c ~inputs:[ input ] net in
  check_bool "consistent" true r.Verify.consistent;
  check_bool "coordination-free" true r.Verify.coordination_free

let test_compile_beyond_rejected () =
  match Compile.strategy_for Hierarchy.Beyond Zoo.tc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_compile_program_picks_level () =
  let p = Datalog.Program.parse Zoo.tc_program ~outputs:[ "T" ] in
  let c = Compile.compile_program p in
  check_bool "tc compiled at M" true (c.Compile.level = Hierarchy.Monotone);
  let p = Datalog.Program.parse Zoo.comp_tc_program in
  let c = Compile.compile_program p in
  check_bool "comp-tc compiled at Mdisjoint" true
    (c.Compile.level = Hierarchy.Domain_disjoint)

let test_compiled_program_runs () =
  (* A Datalog program, compiled and executed distributedly, agrees with
     its centralized evaluation. *)
  let p = Datalog.Program.parse Zoo.comp_tc_program in
  let c = Compile.compile_program p in
  let input = Graph_gen.path 3 in
  let expected = Datalog.Program.run p input in
  let policy = Network.Policy.hash_value c.Compile.query.Query.input net in
  let result =
    Network.Run.run ~variant:c.Compile.variant ~policy
      ~transducer:c.Compile.transducer ~input Network.Run.Round_robin
  in
  check_bool "quiesced" true result.Network.Run.quiesced;
  check_bool "distributed = centralized" true
    (Instance.equal result.Network.Run.outputs expected)

(* ------------------------------------------------------------------ *)
(* Empirical coordination detection (E25) *)

let test_compile_beyond_barrier () =
  (* Beyond queries compile to the coordinated barrier strategy. *)
  let c = Compile.compile ~level:Hierarchy.Beyond (Zoo.q_clique 3) in
  check_bool "level stays Beyond" true (c.Compile.level = Hierarchy.Beyond);
  check_bool "any policy allowed" false c.Compile.domain_guided_only;
  let input = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let expected = Query.apply (Zoo.q_clique 3) input in
  List.iter
    (fun policy ->
      let r =
        Network.Run.run ~variant:c.Compile.variant ~policy
          ~transducer:c.Compile.transducer ~input Network.Run.Round_robin
      in
      check_bool (Network.Policy.name policy ^ " quiesced") true
        r.Network.Run.quiesced;
      check_bool (Network.Policy.name policy ^ " correct") true
        (Instance.equal r.Network.Run.outputs expected))
    (Network.Netquery.default_policies (Zoo.q_clique 3).Query.input net)

let test_empirical_zoo_agrees () =
  let entries = Empirical.zoo () in
  check_bool "six zoo entries" true (List.length entries = 6);
  List.iter
    (fun (en : Empirical.entry) ->
      check_bool (en.Empirical.name ^ ": some correct quiescent run") true
        (List.exists
           (fun (v : Empirical.policy_verdict) ->
             v.Empirical.correct && v.Empirical.quiesced)
           en.Empirical.runs);
      check_bool (en.Empirical.name ^ ": observed verdict agrees with static")
        true en.Empirical.agree)
    entries;
  (* Win-move is the "sometimes" row: free under the good placements,
     coordinated under the scattering one. *)
  match
    List.find_opt
      (fun (en : Empirical.entry) -> en.Empirical.name = "winmove")
      entries
  with
  | None -> Alcotest.fail "winmove missing from the zoo"
  | Some en ->
    check_bool "winmove: some correct run is cut-free" true
      (List.exists
         (fun (v : Empirical.policy_verdict) ->
           v.Empirical.correct && v.Empirical.quiesced
           && not v.Empirical.coordinated)
         en.Empirical.runs);
    let scatter_cells =
      List.filter
        (fun (v : Empirical.policy_verdict) ->
          String.length v.Empirical.label >= 7
          && String.sub v.Empirical.label 0 7 = "scatter")
        en.Empirical.runs
    in
    check_bool "winmove: scatter cells present" true (scatter_cells <> []);
    List.iter
      (fun (v : Empirical.policy_verdict) ->
        check_bool (v.Empirical.label ^ ": coordinated") true
          v.Empirical.coordinated)
      scatter_cells

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_rendering () =
  let t = Report.create ~title:"demo" ~columns:[ "query"; "M"; "Mdistinct" ] in
  Report.add_row t [ "tc"; "in"; "in" ];
  Report.add_row t [ "comp-tc"; "NOT in"; "NOT in" ];
  Report.add_note t "bounded check";
  let s = Report.render t in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "has title" true (contains s "== demo ==");
  check_bool "mentions comp-tc" true (contains s "comp-tc");
  check_bool "has note" true (contains s "note: bounded check");
  let md = Report.to_markdown t in
  check_bool "md heading" true (contains md "## demo");
  check_bool "md separator" true (contains md "| --- | --- | --- |");
  check_bool "md note" true (contains md "*bounded check*")

(* ------------------------------------------------------------------ *)
(* Figure 2 data *)

let test_figure2_wellformed () =
  let known_experiments =
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E16"; "E17"; "E19"; "E21" ]
  in
  List.iter
    (fun c ->
      check_bool "every claim has evidence" true (c.Figure2.evidence <> []);
      List.iter
        (fun e ->
          check_bool ("known experiment " ^ e) true
            (List.mem e known_experiments))
        c.Figure2.evidence)
    Figure2.claims;
  check_bool "renders" true (String.length (Figure2.render ()) > 100)

let test_figure2_hierarchy_consistent () =
  (* The figure's class chain must match the Hierarchy module's order. *)
  let chain =
    List.filter
      (fun c -> c.Figure2.relation = Figure2.Strictly_included)
      Figure2.claims
  in
  check_bool "M c Mdistinct present" true
    (List.exists
       (fun c -> c.Figure2.lhs = "M" && c.Figure2.rhs = "Mdistinct")
       chain);
  check_bool "F0 c F1 present" true
    (List.exists
       (fun c -> c.Figure2.lhs = "F0" && c.Figure2.rhs = "F1")
       chain)

let () =
  Alcotest.run "calm-core"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "order" `Quick test_level_order;
          Alcotest.test_case "of_fragment" `Quick test_of_fragment;
          Alcotest.test_case "empirical" `Slow test_empirical_placement;
          Alcotest.test_case "program placement" `Slow test_placement_of_program;
        ] );
      ( "compile",
        [
          Alcotest.test_case "monotone/tc" `Slow test_compile_monotone;
          Alcotest.test_case "distinct/comp-tc" `Slow test_compile_distinct;
          Alcotest.test_case "disjoint/winmove" `Slow test_compile_disjoint_winmove;
          Alcotest.test_case "beyond rejected" `Quick test_compile_beyond_rejected;
          Alcotest.test_case "program level" `Quick test_compile_program_picks_level;
          Alcotest.test_case "compiled program runs" `Slow test_compiled_program_runs;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "compile: barrier computes Beyond" `Slow
            test_compile_beyond_barrier;
          Alcotest.test_case "zoo agrees with static claims" `Slow
            test_empirical_zoo_agrees;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "figure2",
        [
          Alcotest.test_case "well-formed" `Quick test_figure2_wellformed;
          Alcotest.test_case "hierarchy consistent" `Quick
            test_figure2_hierarchy_consistent;
        ] );
    ]
