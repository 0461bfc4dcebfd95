(* Tests for the calm_core umbrella: hierarchy placement, compilation to
   coordination-free transducers, end-to-end checks of Definition 3,
   reporting. *)

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

(* The placement wall. {!Hierarchy.place_empirically} stops at the first
   class that holds; the reference runs all three full scans and reads
   the level off their outcomes, checking on the way that the classes
   that hold are closed upwards (per base the extensions nest, so a class
   that holds leaves nothing for a weaker one to violate). The chain's
   level must equal the reference's at jobs 1 and 2, and stay within the
   syntactic level where the query has a program. *)
let classes =
  [
    (Monotone.Classes.Plain, Hierarchy.Monotone);
    (Monotone.Classes.Distinct, Hierarchy.Domain_distinct);
    (Monotone.Classes.Disjoint, Hierarchy.Domain_disjoint);
  ]

let reference_level ~bounds q =
  let held =
    List.filter_map
      (fun (kind, level) ->
        if Monotone.Checker.is_violation
             (Monotone.Checker.check_exhaustive ~bounds kind q)
        then None
        else Some level)
      classes
  in
  match held with
  | [] -> (Hierarchy.Beyond, true)
  | strongest :: _ ->
    ( strongest,
      List.for_all
        (fun (_, level) ->
          List.mem level held || not (Hierarchy.leq strongest level))
        classes )

let check_placement ~bounds name q ~syntactic =
  let expected, nested = reference_level ~bounds q in
  check_bool (name ^ ": holding classes nest") true nested;
  check_bool (name ^ ": within the syntactic level") true
    (Hierarchy.leq expected syntactic);
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "%s: chain = reference at jobs %d" name jobs)
        true
        (Hierarchy.place_empirically ~bounds ~jobs q = expected))
    [ 1; 2 ]

let syntactic_level p = Hierarchy.of_fragment (Datalog.Program.fragment p)

let placement_wall_zoo () =
  let program ?semantics src outputs =
    Datalog.Program.parse ?semantics ~outputs src
  in
  let programs =
    [
      ("tc", program Zoo.tc_program [ "T" ]);
      ("comp-tc", program Zoo.comp_tc_program [ "O" ]);
      ("example 5.1 P1", program Zoo.example_51_p1 [ "O" ]);
      ("example 5.1 P2", program Zoo.example_51_p2 [ "O" ]);
      ( "win-move",
        program ~semantics:Datalog.Program.Well_founded Zoo.winmove_program
          [ "Win" ] );
      ("q-clique-3", program Zoo.q_clique3_program [ "O" ]);
      ("q-star-2", program Zoo.q_star2_program [ "O" ]);
    ]
  in
  List.iter
    (fun (name, p) ->
      check_placement ~bounds:small_bounds (name ^ " program")
        (Datalog.Program.query ~name p) ~syntactic:(syntactic_level p))
    programs;
  (* The hand-written queries, bounded by their program's level where
     the zoo has one. *)
  let level_of name = syntactic_level (List.assoc name programs) in
  List.iter
    (fun (name, q, syntactic) ->
      check_placement ~bounds:small_bounds name q ~syntactic)
    [
      ("tc", Zoo.tc, level_of "tc");
      ("comp-tc", Zoo.comp_tc, level_of "comp-tc");
      ("q-clique-3", Zoo.q_clique 3, level_of "q-clique-3");
      ("q-star-2", Zoo.q_star 2, level_of "q-star-2");
      ("win-move", Zoo.winmove, level_of "win-move");
      ("q-duplicate-2", Zoo.q_duplicate 2, Hierarchy.Beyond);
      ( "triangles-unless-2-disjoint",
        Zoo.triangles_unless_two_disjoint,
        Hierarchy.Beyond );
      ("win-move-doubled", Zoo.winmove_doubled, Hierarchy.Beyond);
    ]

(* Random stratified programs ({!Random_program}) over binary A and B, at
   bounds small enough for two relations. *)
let placement_wall_programs () =
  let bounds =
    { Monotone.Checker.dom_size = 2; fresh = 1; max_base = 2; max_ext = 2 }
  in
  let programs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:24
      (Random_program.program ~negatable:[ "A"; "B"; "P"; "Q" ]
         ~rules:(1, 4) ())
    |> List.filter_map (fun rules ->
           match Random_program.make rules with
           | p -> Some p
           | exception Invalid_argument _ -> None)
  in
  check_bool "enough stratified draws" true (List.length programs >= 8);
  List.iteri
    (fun i p ->
      check_placement ~bounds
        (Printf.sprintf "random program %d" i)
        (Datalog.Program.query ~name:"random" p)
        ~syntactic:(syntactic_level p))
    programs

let test_placement_wall () =
  placement_wall_zoo ();
  placement_wall_programs ()

(* A program's two placements: comp-tc's fragment puts it at Mdisjoint,
   and the bounded empirical level stays within that. *)
let test_placement_of_program () =
  let p = Datalog.Program.parse Zoo.comp_tc_program in
  let syntactic = syntactic_level p in
  let empirical =
    Hierarchy.place_empirically ~bounds:small_bounds
      (Datalog.Program.query ~name:"program" p)
  in
  check_bool "syntactic Mdisjoint" true (syntactic = Hierarchy.Domain_disjoint);
  check_bool "empirical within syntactic" true (Hierarchy.leq empirical syntactic)

(* ------------------------------------------------------------------ *)
(* Compile, checked against both halves of Definition 3 *)

(* On every input, the compiled network computes Q(input) under every
   scheduler × policy cell (consistency), and some node outputs Q(input)
   from heartbeats alone (the coordination-freeness witness). *)
let check_definition3 (c : Compile.compiled) inputs =
  let policies =
    Network.Netquery.default_policies
      ~domain_guided_only:c.Compile.domain_guided_only
      c.Compile.query.Query.input net
  in
  List.iter
    (fun input ->
      let verdict =
        Network.Netquery.check ~policies ~variant:c.Compile.variant
          ~transducer:c.Compile.transducer ~query:c.Compile.query ~input net
      in
      check_bool "consistent" true (Network.Netquery.consistent verdict);
      check_bool "coordination-free" true
        (Network.Coordination.heartbeat_witness ~variant:c.Compile.variant
           ~transducer:c.Compile.transducer ~query:c.Compile.query ~input net
        <> None))
    inputs

let test_compile_monotone () =
  check_definition3
    (Compile.compile ~level:Hierarchy.Monotone Zoo.tc)
    [ Instance.empty; Graph_gen.path 3 ]

let test_compile_distinct () =
  check_definition3
    (Compile.compile ~level:Hierarchy.Domain_distinct Zoo.comp_tc)
    [ Graph_gen.path 3 ]

let test_compile_disjoint_winmove () =
  let c = Compile.compile ~level:Hierarchy.Domain_disjoint Zoo.winmove in
  check_bool "domain-guided only" true c.Compile.domain_guided_only;
  check_definition3 c [ Graph_gen.game ~seed:3 ~nodes:4 ~edges:5 ]

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

(* A wrong output refutes a coordination-free placement. O copies E
   unless a 4-clique exists; the bounded empirical placement cannot hold
   a 4-clique and puts the program at the monotone level, which is given
   directly here (the examples/cli golden goes through the placement).
   Replicating everything stays correct and cut-free, so the query is
   observed coordination-free, yet most other runs output edges of the
   clique: the entry must DISAGREE, with exit code 2. *)
let test_empirical_wrong_output_disagrees () =
  let p =
    Datalog.Program.parse
      "K(x) :- E(x,y), E(x,z), E(x,w), E(y,z), E(y,w), E(z,w), x != y, \
       x != z, x != w, y != z, y != w, z != w. H(u) :- K(x), Adom(u). \
       O(x,y) :- E(x,y), not H(x)."
  in
  let en =
    Empirical.detect_compiled ~name:"4-clique"
      ~compiled:
        (Compile.compile ~level:Hierarchy.Monotone
           (Datalog.Program.query ~name:"program" p))
      ~input:
        (Graph_gen.of_edges [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ])
      ()
  in
  check_bool "observed coordination-free" true en.Empirical.observed_free;
  check_bool "some run is wrong" true
    (List.exists
       (fun (v : Empirical.policy_verdict) -> not v.Empirical.correct)
       en.Empirical.runs);
  check_bool "disagrees" false en.Empirical.agree;
  Alcotest.(check int) "exit code" 2 (Empirical.exit_code en)

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
  check_bool "has note" true (contains s "note: bounded check")

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
          Alcotest.test_case "placement wall" `Slow test_placement_wall;
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
          Alcotest.test_case "wrong output disagrees" `Quick
            test_empirical_wrong_output_disagrees;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "figure2",
        [
          Alcotest.test_case "well-formed" `Quick test_figure2_wellformed;
          Alcotest.test_case "hierarchy consistent" `Quick
            test_figure2_hierarchy_consistent;
        ] );
    ]
