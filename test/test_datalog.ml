(* Tests for the Datalog engine: parser, stratification, fixpoints,
   well-founded semantics, connectivity, fragments, ILOG. *)

open Relational
open Datalog

let v = Value.int
let fact r args = Fact.make r (List.map Value.int args)
let edge a b = fact "E" [ a; b ]
let inst facts = Instance.of_list facts

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let instance_testable =
  Alcotest.testable Instance.pp Instance.equal

(* Shared programs ---------------------------------------------------- *)

let tc_src = "T(x,y) :- E(x,y).  T(x,z) :- T(x,y), E(y,z)."
let tc = Parser.parse_program tc_src

(* Complement of transitive closure (Q_TC in Theorem 3.1). *)
let comp_tc_src =
  "T(x,y) :- E(x,y).\n\
   T(x,z) :- T(x,y), E(y,z).\n\
   O(x,y) :- Adom(x), Adom(y), not T(x,y)."

let winmove_src = "Win(x) :- Move(x,y), not Win(y)."

(* Example 5.1, program P1: connected but not in Mdistinct. *)
let p1_src =
  "T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
   O(x) :- Adom(x), not T(x)."

(* Example 5.1, program P2: not semi-connected (unconnected rule feeds
   negation). *)
let p2_src =
  "T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
   D(x1) :- T(x1,x2,x3), T(y1,y2,y3), x1 != y1, x1 != y2, x1 != y3, x2 != \
   y1, x2 != y2, x2 != y3, x3 != y1, x3 != y2, x3 != y3.\n\
   O(x) :- Adom(x), not D(x)."

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_tc () =
  check_int "two rules" 2 (List.length tc);
  let r = List.hd tc in
  Alcotest.(check string) "head pred" "T" r.Ast.head.Ast.pred;
  check_int "head arity" 2 (Ast.atom_arity r.Ast.head)

let test_parse_literals () =
  let r = Parser.parse_rule "O(x) :- R(x,y), not S(y), x != y, y != 3." in
  check_int "pos" 1 (List.length r.Ast.pos);
  check_int "neg" 1 (List.length r.Ast.neg);
  check_int "ineq" 2 (List.length r.Ast.ineq)

let test_parse_constants () =
  let r = Parser.parse_rule "O(x) :- R(x, 42, \"alice\")." in
  match (List.hd r.Ast.pos).Ast.terms with
  | [ Ast.Var "x"; Ast.Const c1; Ast.Const c2 ] ->
    check_bool "int const" true (Value.equal c1 (v 42));
    check_bool "sym const" true (Value.equal c2 (Value.sym "alice"))
  | _ -> Alcotest.fail "unexpected term shape"

let test_parse_invention () =
  let r = Parser.parse_rule "R(*, x, y) :- E(x, y)." in
  check_bool "invents" true r.Ast.head.Ast.invents;
  check_int "arity counts slot" 3 (Ast.atom_arity r.Ast.head)

let test_parse_negative_int () =
  let r = Parser.parse_rule "O(x) :- R(x, -5)." in
  match (List.hd r.Ast.pos).Ast.terms with
  | [ _; Ast.Const c ] -> check_bool "neg int" true (Value.equal c (v (-5)))
  | _ -> Alcotest.fail "unexpected term shape"

let test_parse_comments_and_newlines () =
  let p =
    Parser.parse_program
      "% transitive closure\nT(x,y) :- E(x,y). % base\nT(x,z) :- T(x,y), E(y,z)."
  in
  check_int "two rules" 2 (List.length p)

let expect_syntax_error src =
  match Parser.parse_program src with
  | exception Parser.Syntax_error _ -> ()
  | _ -> Alcotest.fail ("expected syntax error for: " ^ src)

let test_parse_errors () =
  expect_syntax_error "T(x,y) :- ";
  expect_syntax_error "T(x,y)";
  expect_syntax_error "T(x,y) :- E(x,y)";
  (* unbound head variable *)
  expect_syntax_error "T(x,z) :- E(x,y).";
  (* unbound variable in negation *)
  expect_syntax_error "T(x) :- E(x,y), not S(w).";
  (* invention in body *)
  expect_syntax_error "T(x) :- E(*, x).";
  (* arity clash *)
  expect_syntax_error "T(x) :- E(x,y). T(x,y) :- E(x,y).";
  (* unterminated string *)
  expect_syntax_error "T(x) :- E(x, \"abc).";
  (* nullary *)
  expect_syntax_error "T() :- E(x,y)."

(* An arity conflict points at the atom that disagrees with the
   predicate's first use, in lint CALM011's wording. *)
let test_parse_arity_conflict_located () =
  match Parser.parse_program "O(x,y) :- E(x,y).\nO(x) :- E(x,x)." with
  | _ -> Alcotest.fail "expected a syntax error"
  | exception Parser.Syntax_error { line; col; message } ->
    check_int "line" 2 line;
    check_int "column" 1 col;
    Alcotest.(check string)
      "message" "predicate O used with arity 1, previously 2" message

let test_pretty_roundtrip () =
  let p = Parser.parse_program p2_src in
  let p' = Parser.parse_program (Ast.to_string p) in
  check_bool "roundtrip" true (Ast.equal_program p p')

let test_pretty_roundtrip_invention () =
  let p = Parser.parse_program "R(*, x) :- E(x, y), not S(x, \"lbl\")." in
  let p' = Parser.parse_program (Ast.to_string p) in
  check_bool "roundtrip" true (Ast.equal_program p p')

(* ------------------------------------------------------------------ *)
(* Ast schema helpers *)

let test_schemas () =
  let p = Parser.parse_program comp_tc_src in
  let p = Adom.augment p in
  check_bool "E is edb" true (Schema.mem (Ast.edb p) "E");
  check_bool "T is idb" true (Schema.mem (Ast.idb p) "T");
  check_bool "O is idb" true (Schema.mem (Ast.idb p) "O");
  check_bool "Adom is idb after augment" true (Schema.mem (Ast.idb p) "Adom")

(* ------------------------------------------------------------------ *)
(* Stratification *)

let test_stratify_tc () =
  match Stratify.stratify tc with
  | Error e -> Alcotest.fail e
  | Ok { strata; number } ->
    check_int "single stratum" 1 (List.length strata);
    Alcotest.(check (option int)) "T" (Some 1) (number "T");
    Alcotest.(check (option int)) "edb E has none" None (number "E")

let test_stratify_two_levels () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  match Stratify.stratify p with
  | Error e -> Alcotest.fail e
  | Ok { number; _ } ->
    let t = Option.get (number "T") and o = Option.get (number "O") in
    check_bool "T before O" true (t < o)

let test_unstratifiable () =
  let p = Parser.parse_program winmove_src in
  check_bool "win-move unstratifiable" false (Stratify.is_stratifiable p);
  match Stratify.stratify p with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e -> check_bool "mentions Win" true (String.length e > 0)

let test_even_odd_stratifiable () =
  (* Negation without a cycle is fine. *)
  let p =
    Parser.parse_program
      "A(x) :- V(x), not B(x). B(x) :- W(x)."
  in
  check_bool "stratifiable" true (Stratify.is_stratifiable p)

let eval_with_stratification strat i =
  List.fold_left (fun acc s -> Eval.seminaive s acc) i strat.Stratify.strata

let test_finest_agrees () =
  let programs =
    [
      tc;
      Adom.augment (Parser.parse_program comp_tc_src);
      Adom.augment (Parser.parse_program p1_src);
      Adom.augment (Parser.parse_program p2_src);
    ]
  in
  List.iter
    (fun p ->
      match (Stratify.stratify p, Stratify.finest p) with
      | Ok s1, Ok s2 ->
        for seed = 0 to 4 do
          let st = Random.State.make [| seed |] in
          let i =
            inst
              (List.init 6 (fun _ ->
                   edge (Random.State.int st 4) (Random.State.int st 4)))
          in
          check_bool "same output" true
            (Instance.equal (eval_with_stratification s1 i)
               (eval_with_stratification s2 i))
        done
      | _ -> Alcotest.fail "both stratifications should exist")
    programs

let test_finest_rejects_winmove () =
  check_bool "finest rejects win-move" true
    (Result.is_error (Stratify.finest (Parser.parse_program winmove_src)))

let test_finest_splits_independent_preds () =
  (* A and B are independent; the finest stratification separates them
     (two strata), while both orders evaluate identically. *)
  let p = Parser.parse_program "A(x) :- V(x). B(x) :- W(x), not A(x)." in
  match Stratify.finest p with
  | Error e -> Alcotest.fail e
  | Ok { strata; number } ->
    check_int "two strata" 2 (List.length strata);
    let a = Option.get (number "A") and b = Option.get (number "B") in
    check_bool "A before B" true (a < b)

let test_dependencies () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let deps = Stratify.depends_on_trans p "O" in
  check_bool "O depends on T" true (List.mem "T" deps);
  check_bool "O depends on Adom" true (List.mem "Adom" deps);
  let dependents = Stratify.dependents_of_trans p [ "T" ] in
  check_bool "O depends on T (reverse)" true (List.mem "O" dependents);
  check_bool "Adom does not" false (List.mem "Adom" dependents)

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let path n = inst (List.init n (fun i -> edge i (i + 1)))

let tc_pairs n =
  (* expected T-facts of a path 0..n *)
  let out = ref Instance.empty in
  for i = 0 to n do
    for j = i + 1 to n do
      out := Instance.add (fact "T" [ i; j ]) !out
    done
  done;
  !out

let test_eval_tc_path () =
  let i = path 4 in
  let out = Instance.restrict_rels (Eval.seminaive tc i) [ "T" ] in
  Alcotest.check instance_testable "tc of path" (tc_pairs 4) out

let test_eval_tc_cycle () =
  let i = inst [ edge 1 2; edge 2 3; edge 3 1 ] in
  let out = Instance.restrict_rels (Eval.seminaive tc i) [ "T" ] in
  check_int "all 9 pairs" 9 (Instance.cardinal out)

let test_naive_equals_seminaive_tc () =
  let i = inst [ edge 1 2; edge 2 3; edge 3 1; edge 3 4; edge 5 5 ] in
  Alcotest.check instance_testable "naive = seminaive" (Refeval.naive tc i)
    (Eval.seminaive tc i)

let test_eval_ineq () =
  let p = Parser.parse_program "O(x,y) :- E(x,y), x != y." in
  let i = inst [ edge 1 1; edge 1 2 ] in
  let out = Instance.restrict_rels (Eval.seminaive p i) [ "O" ] in
  Alcotest.check instance_testable "irreflexive edges"
    (inst [ fact "O" [ 1; 2 ] ])
    out

let test_eval_semipositive_negation () =
  (* Non-edges over the active domain. *)
  let p =
    Adom.augment
      (Parser.parse_program "O(x,y) :- Adom(x), Adom(y), not E(x,y).")
  in
  let i = inst [ edge 1 2 ] in
  let out = Instance.restrict_rels (Eval.stratified_exn p i) [ "O" ] in
  Alcotest.check instance_testable "complement"
    (inst [ fact "O" [ 1; 1 ]; fact "O" [ 2; 1 ]; fact "O" [ 2; 2 ] ])
    out

let test_eval_stratified_comp_tc () =
  let p = Program.parse comp_tc_src in
  let i = inst [ edge 1 2; edge 2 3 ] in
  let out = Program.run p i in
  (* Pairs with no path: everything except (1,2),(2,3),(1,3). *)
  check_int "9 - 3 pairs" 6 (Instance.cardinal out);
  check_bool "no (1,3)" false (Instance.mem (fact "O" [ 1; 3 ]) out);
  check_bool "has (3,1)" true (Instance.mem (fact "O" [ 3; 1 ]) out)

let test_eval_constants_in_rules () =
  let p = Parser.parse_program "O(x) :- E(1, x)." in
  let i = inst [ edge 1 2; edge 3 4 ] in
  let out = Instance.restrict_rels (Eval.seminaive p i) [ "O" ] in
  Alcotest.check instance_testable "selected" (inst [ fact "O" [ 2 ] ]) out

let test_eval_empty_input () =
  Alcotest.check instance_testable "empty in, empty out" Instance.empty
    (Eval.seminaive tc Instance.empty)

let test_eval_multi_join () =
  (* Triangles. *)
  let p =
    Parser.parse_program
      "O(x,y,z) :- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z."
  in
  let i = inst [ edge 1 2; edge 2 3; edge 3 1; edge 3 4 ] in
  let out = Instance.restrict_rels (Eval.seminaive p i) [ "O" ] in
  check_int "three rotations" 3 (Instance.cardinal out)

(* ------------------------------------------------------------------ *)
(* Hash-indexed joins: Eval probes Joindb's hash indexes; directed cases
   for the join shapes the planner treats specially, each checked
   against the nested-loop reference engine. *)

let test_hashjoin_tc () =
  let i = path 4 in
  Alcotest.check instance_testable "agrees with Refeval on TC"
    (Refeval.seminaive tc i) (Eval.seminaive tc i)

let test_hashjoin_repeated_vars () =
  let p = Parser.parse_program "O(x) :- E(x,x)." in
  let i = inst [ edge 1 1; edge 1 2; edge 3 3 ] in
  Alcotest.check instance_testable "self loops"
    (Instance.restrict_rels (Refeval.seminaive p i) [ "O" ])
    (Instance.restrict_rels (Eval.seminaive p i) [ "O" ])

let test_hashjoin_constants_and_ineq () =
  let p = Parser.parse_program "O(y,z) :- E(1,y), E(y,z), y != z." in
  let i = inst [ edge 1 2; edge 2 3; edge 2 2; edge 4 5 ] in
  Alcotest.check instance_testable "constants + inequality"
    (Refeval.seminaive p i) (Eval.seminaive p i)

let test_hashjoin_stratified () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let i = inst [ edge 1 2; edge 2 3 ] in
  match (Refeval.stratified p i, Eval.stratified p i) with
  | Ok a, Ok b -> Alcotest.check instance_testable "stratified agreement" a b
  | _ -> Alcotest.fail "stratification failed"

let test_hashjoin_invention () =
  let p = Parser.parse_program "R(*, x, y) :- E(x, y). O(x) :- R(t, x, y)." in
  let i = inst [ edge 1 2 ] in
  Alcotest.check instance_testable "invention through the indexed join"
    (Refeval.seminaive p i) (Eval.seminaive p i)

(* ------------------------------------------------------------------ *)
(* Reference engine (the preserved seed nested-loop evaluator) *)

let cycle n = inst (List.init n (fun i -> edge i ((i + 1) mod n)))

let test_refeval_zoo_agreement () =
  (* The indexed engine against the frozen seed engine, across the zoo's
     stratifiable programs and graph shapes. *)
  let graphs =
    [
      path 4;
      cycle 5;
      inst [ edge 1 2; edge 2 3; edge 3 1; edge 3 4; edge 4 4 ];
      Instance.empty;
    ]
  in
  let programs =
    [
      ("tc", tc);
      ("comp-tc", Adom.augment (Parser.parse_program comp_tc_src));
      ("p1", Adom.augment (Parser.parse_program p1_src));
      ("p2", Adom.augment (Parser.parse_program p2_src));
    ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun i ->
          match (Refeval.stratified p i, Eval.stratified p i) with
          | Ok reference, Ok indexed ->
            Alcotest.check instance_testable (name ^ ": indexed = reference")
              reference indexed
          | Error e, _ | _, Error e -> Alcotest.fail e)
        graphs)
    programs

let test_refeval_naive_seminaive () =
  let i = path 5 in
  Alcotest.check instance_testable "reference naive = reference seminaive"
    (Refeval.naive tc i) (Refeval.seminaive tc i);
  Alcotest.check instance_testable "reference naive = indexed seminaive"
    (Refeval.naive tc i) (Eval.seminaive tc i)

(* ------------------------------------------------------------------ *)
(* Well-founded semantics *)

let winmove = Parser.parse_program winmove_src
let move a b = fact "Move" [ a; b ]
let win a = fact "Win" [ a ]

let test_wf_simple_chain () =
  (* 1 -> 2 -> 3: from 3 no move (lost), 2 wins (move to 3), 1 loses
     (only move to winning 2). *)
  let i = inst [ move 1 2; move 2 3 ] in
  let m = Wellfounded.eval winmove i in
  check_bool "total" true (Wellfounded.total m);
  check_bool "2 wins" true (Instance.mem (win 2) m.true_facts);
  check_bool "1 not won" false (Instance.mem (win 1) m.true_facts);
  check_bool "3 not won" false (Instance.mem (win 3) m.true_facts)

let test_wf_draw_cycle () =
  (* 1 <-> 2: both positions are drawn (undefined). *)
  let i = inst [ move 1 2; move 2 1 ] in
  let m = Wellfounded.eval winmove i in
  check_bool "not total" false (Wellfounded.total m);
  check_bool "win(1) undefined" true (Instance.mem (win 1) m.undefined);
  check_bool "win(2) undefined" true (Instance.mem (win 2) m.undefined)

let test_wf_cycle_with_escape () =
  (* 1 <-> 2, plus 2 -> 3 (dead end). 2 wins by moving to 3. 1's only move
     is to the winning 2, so 1 loses. *)
  let i = inst [ move 1 2; move 2 1; move 2 3 ] in
  let m = Wellfounded.eval winmove i in
  check_bool "total" true (Wellfounded.total m);
  check_bool "2 wins" true (Instance.mem (win 2) m.true_facts);
  check_bool "1 loses" false
    (Instance.mem (win 1) m.true_facts || Instance.mem (win 1) m.undefined)

let test_doubled_step_is_semipositive () =
  let p = Wellfounded.doubled_step_program winmove in
  check_bool "semi-positive" true (Fragment.is_semi_positive p);
  check_bool "connectivity preserved" true
    (List.for_all2
       (fun r r' ->
         Connectivity.rule_is_connected r = Connectivity.rule_is_connected r')
       winmove p)

let test_doubling_agrees_on_winmove () =
  for seed = 0 to 14 do
    let st = Random.State.make [| seed |] in
    let g =
      inst
        (List.init 10 (fun _ ->
             Fact.make "Move"
               [ Value.int (Random.State.int st 6);
                 Value.int (Random.State.int st 6) ]))
    in
    let a = Wellfounded.eval winmove g in
    let b = Wellfounded.eval_via_doubling winmove g in
    check_bool
      (Printf.sprintf "true facts agree (seed %d)" seed)
      true
      (Instance.equal a.Wellfounded.true_facts b.Wellfounded.true_facts);
    check_bool
      (Printf.sprintf "undefined agree (seed %d)" seed)
      true
      (Instance.equal a.Wellfounded.undefined b.Wellfounded.undefined)
  done

let test_doubling_agrees_on_stratifiable () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let g = inst [ edge 1 2; edge 2 3 ] in
  let a = Wellfounded.eval p g in
  let b = Wellfounded.eval_via_doubling p g in
  check_bool "agree" true
    (Instance.equal a.Wellfounded.true_facts b.Wellfounded.true_facts
    && Wellfounded.total b)

let test_wf_agrees_with_stratified () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let i = inst [ edge 1 2; edge 2 3 ] in
  check_bool "stratified-compatible" true
    (Wellfounded.is_stratified_compatible p i)

(* ------------------------------------------------------------------ *)
(* Connectivity *)

let test_rule_connectivity () =
  let r1 = Parser.parse_rule "T(x) :- E(x,y), E(y,z)." in
  check_bool "chain connected" true (Connectivity.rule_is_connected r1);
  let r2 = Parser.parse_rule "T(x) :- E(x,y), F(u,w)." in
  check_bool "disconnected product" false (Connectivity.rule_is_connected r2);
  let r3 = Parser.parse_rule "T(x) :- V(x)." in
  check_bool "single var" true (Connectivity.rule_is_connected r3)

let test_rule_connectivity_neg_not_counted () =
  (* Negative atoms do not contribute edges to graph+. Both w and x occur
     in positive atoms, but only via disconnected positive atoms. *)
  let r = Parser.parse_rule "T(x) :- E(x,y), G(w), not F(x,w)." in
  check_bool "neg atom does not connect" false (Connectivity.rule_is_connected r)

let test_example_51_p1 () =
  let p = Adom.augment (Parser.parse_program p1_src) in
  check_bool "P1 is connected program" true (Connectivity.is_connected_program p);
  check_bool "P1 semi-connected" true (Connectivity.is_semi_connected p)

let test_example_51_p2 () =
  let p = Adom.augment (Parser.parse_program p2_src) in
  check_bool "P2 not connected" false (Connectivity.is_connected_program p);
  check_bool "P2 not semi-connected" false (Connectivity.is_semi_connected p)

let test_semicon_last_stratum_ok () =
  (* Unconnected rule whose head is only used positively, nothing depends
     on it: it can sit in the final stratum. *)
  let p =
    Parser.parse_program
      "T(x) :- E(x,y). O(x,w) :- T(x), G(w), not T(w)."
  in
  check_bool "not connected" false (Connectivity.is_connected_program p);
  check_bool "semi-connected" true (Connectivity.is_semi_connected p);
  check_bool "forced contains O" true
    (List.mem "O" (Connectivity.forced_final_stratum p))

let test_semicon_violation_by_dependency () =
  (* The unconnected rule's head D is negated by a rule that itself must be
     in the final stratum: not semi-connected. *)
  let p =
    Parser.parse_program
      "D(x) :- V(x), G(w).  O(x) :- V(x), not D(x).  P(x) :- O(x), G(x)."
  in
  (* D unconnected -> D in final stratum; O negates D so O must be higher
     -> impossible within one stratum. *)
  check_bool "not semi-connected" false (Connectivity.is_semi_connected p)

(* ------------------------------------------------------------------ *)
(* Fragments *)

let test_fragments () =
  let open Fragment in
  Alcotest.(check string) "tc" "Datalog" (to_string (classify tc));
  let p_ineq = Parser.parse_program "O(x,y) :- E(x,y), x != y." in
  Alcotest.(check string) "ineq" "Datalog(!=)" (to_string (classify p_ineq));
  let p_sp =
    Parser.parse_program "O(x) :- V(x), not E(x,x)."
  in
  Alcotest.(check string) "sp" "SP-Datalog" (to_string (classify p_sp));
  let p1 = Adom.augment (Parser.parse_program p1_src) in
  Alcotest.(check string) "p1 con" "con-Datalog^neg" (to_string (classify p1));
  let p2 = Adom.augment (Parser.parse_program p2_src) in
  Alcotest.(check string) "p2 stratified only" "Datalog^neg (stratified)"
    (to_string (classify p2));
  Alcotest.(check string) "winmove" "unstratifiable"
    (to_string (classify winmove))

let test_fragment_bounds () =
  let open Fragment in
  Alcotest.(check string) "positive bound" "M" (monotonicity_upper_bound Positive);
  Alcotest.(check string) "sp bound" "Mdistinct"
    (monotonicity_upper_bound Semi_positive);
  Alcotest.(check string) "semicon bound" "Mdisjoint"
    (monotonicity_upper_bound Semi_connected_stratified)

(* ------------------------------------------------------------------ *)
(* ILOG *)

let test_ilog_basic_invention () =
  let p = Parser.parse_program "R(*, x, y) :- E(x, y)." in
  match Ilog.eval p (inst [ edge 1 2; edge 3 4 ]) with
  | Ok (Ilog.Output out) ->
    let rs = Instance.restrict_rels out [ "R" ] in
    check_int "two invented facts" 2 (Instance.cardinal rs);
    Instance.iter
      (fun f -> check_bool "first arg invented" true (Value.is_invented (Fact.arg f 0)))
      rs
  | Ok Ilog.Divergent -> Alcotest.fail "unexpected divergence"
  | Error e -> Alcotest.fail e

let test_ilog_same_tuple_same_value () =
  (* Skolemization: the same tuple always gets the same invented value,
     even across rules deriving into the same relation. *)
  let p = Parser.parse_program "R(*, x) :- E(x, y). R(*, y) :- E(x, y)." in
  match Ilog.eval p (inst [ edge 1 1 ]) with
  | Ok (Ilog.Output out) ->
    check_int "single R fact" 1
      (Instance.cardinal (Instance.restrict_rels out [ "R" ]))
  | _ -> Alcotest.fail "expected output"

let test_ilog_divergence () =
  (* Recursive invention: R feeds itself through invention. *)
  let p = Parser.parse_program "N(*, x) :- V(x). N(*, n) :- N(n, x)." in
  match Ilog.eval ~max_facts:1000 p (inst [ fact "V" [ 1 ] ]) with
  | Ok Ilog.Divergent -> ()
  | Ok (Ilog.Output _) -> Alcotest.fail "expected divergence"
  | Error e -> Alcotest.fail e

let test_ilog_validate () =
  let p = Parser.parse_program "R(*, x) :- V(x). R(x, x) :- V(x)." in
  check_bool "inconsistent invention flagged" true
    (Result.is_error (Ilog.validate p))

let test_ilog_unsafe_positions () =
  let p =
    Parser.parse_program "R(*, x) :- V(x). O(n) :- R(n, x)."
  in
  let unsafe = Ilog.unsafe_positions p in
  check_bool "(R,1) unsafe" true (List.mem ("R", 1) unsafe);
  check_bool "(O,1) unsafe by propagation" true (List.mem ("O", 1) unsafe);
  check_bool "not weakly safe" false (Ilog.is_weakly_safe ~outputs:[ "O" ] p)

let test_ilog_weakly_safe () =
  let p =
    Parser.parse_program "R(*, x) :- V(x). O(x) :- R(n, x)."
  in
  check_bool "weakly safe" true (Ilog.is_weakly_safe ~outputs:[ "O" ] p);
  match Ilog.eval_output ~outputs:[ "O" ] p (inst [ fact "V" [ 7 ] ]) with
  | Ok out ->
    check_bool "safe output" true (Ilog.is_safe_output out);
    Alcotest.check instance_testable "projected back"
      (inst [ fact "O" [ 7 ] ])
      out
  | Error e -> Alcotest.fail e

let test_ilog_invention_as_join_value () =
  (* Invented values can be joined on downstream. *)
  let p =
    Parser.parse_program
      "Pair(*, x, y) :- E(x, y). Left(p, x) :- Pair(p, x, y). Right(p, y) \
       :- Pair(p, x, y). O(x, y) :- Left(p, x), Right(p, y)."
  in
  match Ilog.eval_output ~outputs:[ "O" ] p (inst [ edge 1 2; edge 3 4 ]) with
  | Ok out ->
    check_int "recovered pairs" 2 (Instance.cardinal out);
    check_bool "has (1,2)" true (Instance.mem (fact "O" [ 1; 2 ]) out)
  | Error e -> Alcotest.fail e

(* A program's query names the constants of its atoms and inequalities,
   exactly: the exhaustive scan takes the query to be generic under the
   permutations that fix them, and under no others. *)
let test_query_constants () =
  let src = "T(x,y) :- E(x,y), not E(x,5). O(x) :- T(x,y), y != 7." in
  let values = Alcotest.(list (testable Value.pp Value.equal)) in
  Alcotest.check values "Program.query" [ v 5; v 7 ]
    (Program.query ~name:"c" (Program.parse ~outputs:[ "O" ] src))
      .Query.constants;
  (match Ilog.query ~name:"c" ~outputs:[ "O" ] (Parser.parse_program src) with
  | Ok q -> Alcotest.check values "Ilog.query" [ v 5; v 7 ] q.Query.constants
  | Error e -> Alcotest.fail e);
  Alcotest.check values "no constants" []
    (Program.query ~name:"tc" (Program.parse ~outputs:[ "T" ] tc_src))
      .Query.constants

(* ------------------------------------------------------------------ *)
(* Dependency graph export *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_depgraph () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let dot = Depgraph.to_dot p in
  check_bool "digraph" true (contains dot "digraph dependencies {");
  check_bool "edb box" true (contains dot "\"E\" [shape=box];");
  check_bool "positive edge" true (contains dot "\"E\" -> \"T\";");
  check_bool "negative edge dashed" true
    (contains dot "\"T\" -> \"O\" [style=dashed, color=red];");
  check_bool "stratum label" true (contains dot "stratum");
  (* Unstratifiable programs still render, without stratum labels. *)
  let dot' = Depgraph.to_dot (Parser.parse_program winmove_src) in
  check_bool "self negative loop" true
    (contains dot' "\"Win\" -> \"Win\" [style=dashed, color=red];");
  check_bool "no stratum label" false (contains dot' "stratum")

(* ------------------------------------------------------------------ *)
(* Points of order (Bloom-style CALM analysis) *)

let test_points_positive () =
  let points = Points_of_order.analyze tc in
  check_int "no points" 0 (List.length points);
  Alcotest.(check string) "F0" "F0 (none: positive program, monotone)"
    (Points_of_order.coordination_level tc)

let test_points_edb_negation () =
  let p =
    Adom.augment
      (Parser.parse_program "O(x,y) :- Adom(x), Adom(y), not E(x,y).")
  in
  let points = Points_of_order.analyze p in
  check_int "one point" 1 (List.length points);
  check_bool "edb severity" true
    (List.for_all
       (fun pt -> pt.Points_of_order.severity = Points_of_order.Edb_negation)
       points);
  check_bool "F1 level" true
    (String.length (Points_of_order.coordination_level p) > 1
    && String.sub (Points_of_order.coordination_level p) 0 2 = "F1")

let test_points_semicon () =
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  check_bool "F2 level" true
    (String.sub (Points_of_order.coordination_level p) 0 2 = "F2");
  match Points_of_order.max_severity (Points_of_order.analyze p) with
  | Some Points_of_order.Stratified_negation -> ()
  | _ -> Alcotest.fail "expected stratified negation as max severity"

let test_points_blocking () =
  let p = Adom.augment (Parser.parse_program p2_src) in
  match Points_of_order.max_severity (Points_of_order.analyze p) with
  | Some Points_of_order.Blocking_negation -> ()
  | _ -> Alcotest.fail "expected blocking negation for P2"

(* ------------------------------------------------------------------ *)
(* Adom + Program *)

let test_adom_rules () =
  let sg = Schema.of_list [ ("E", 2); ("V", 1) ] in
  let rules = Adom.rules_for sg in
  check_int "2 + 1 rules" 3 (List.length rules)

let test_adom_augment_noop () =
  check_bool "tc unchanged" true
    (Ast.equal_program tc (Adom.augment tc))

let test_program_api () =
  let p = Program.parse comp_tc_src in
  check_bool "input is E" true (Schema.mem (Program.input_schema p) "E");
  check_bool "output is O" true (Schema.mem (Program.output_schema p) "O");
  check_bool "input excludes Adom" false
    (Schema.mem (Program.input_schema p) "Adom")

let test_program_rejects_bad_output () =
  match Program.parse ~outputs:[ "Nope" ] tc_src with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_program_rejects_unstratifiable () =
  match Program.parse ~outputs:[ "Win" ] winmove_src with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_program_wellfounded_semantics () =
  let p =
    Program.parse ~outputs:[ "Win" ] ~semantics:Program.Well_founded
      winmove_src
  in
  let out = Program.run p (inst [ move 1 2; move 2 3 ]) in
  Alcotest.check instance_testable "wins" (inst [ win 2 ]) out

let test_program_as_query () =
  let p = Program.parse tc_src ~outputs:[ "T" ] in
  let q = Program.query ~name:"tc" p in
  let out = Query.apply q (path 3) in
  Alcotest.check instance_testable "tc query" (tc_pairs 3) out;
  check_bool "generic" true (Query.check_generic q (path 3))

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_graph max_nodes max_edges =
  QCheck2.Gen.(
    let* n = int_range 0 max_edges in
    let* edges =
      list_size (return n)
        (pair (int_range 0 (max_nodes - 1)) (int_range 0 (max_nodes - 1)))
    in
    return (inst (List.map (fun (a, b) -> edge a b) edges)))

let prop_naive_eq_seminaive_tc =
  QCheck2.Test.make ~name:"naive = seminaive on TC" ~count:100
    (gen_graph 7 14) (fun i ->
      Instance.equal (Refeval.naive tc i) (Eval.seminaive tc i))

let prop_naive_eq_seminaive_sp =
  let p =
    Adom.augment
      (Parser.parse_program
         "O(x,y) :- Adom(x), Adom(y), not E(x,y), x != y.")
  in
  QCheck2.Test.make ~name:"naive = seminaive on SP program" ~count:100
    (gen_graph 6 10) (fun i ->
      (* Evaluate each stratum both ways. *)
      match Stratify.stratify p with
      | Error _ -> false
      | Ok { strata; _ } ->
        let run eval = List.fold_left (fun acc s -> eval s acc) i strata in
        Instance.equal
          (run (fun s acc -> Refeval.naive s acc))
          (run (fun s acc -> Eval.seminaive s acc)))

let prop_tc_idempotent =
  QCheck2.Test.make ~name:"TC fixpoint is a fixpoint" ~count:100
    (gen_graph 7 14) (fun i ->
      let out = Eval.seminaive tc i in
      Instance.equal out (Instance.union out (Refeval.derive tc out)))

let prop_tc_monotone =
  QCheck2.Test.make ~name:"positive program is monotone" ~count:100
    (QCheck2.Gen.pair (gen_graph 6 10) (gen_graph 6 10)) (fun (i, j) ->
      Instance.subset (Eval.seminaive tc i)
        (Eval.seminaive tc (Instance.union i j)))

let prop_wf_total_on_stratifiable =
  let p = Adom.augment (Parser.parse_program p1_src) in
  QCheck2.Test.make ~name:"WF total + agrees on stratifiable P1" ~count:50
    (gen_graph 5 8) (fun i -> Wellfounded.is_stratified_compatible p i)

let prop_wf_winmove_partition =
  QCheck2.Test.make ~name:"win-move WF: wins, losses, draws partition"
    ~count:100 (gen_graph 6 10) (fun e ->
      (* reinterpret E edges as moves *)
      let i =
        Instance.fold
          (fun f acc -> Instance.add (Fact.make "Move" (Fact.args f)) acc)
          e Instance.empty
      in
      let m = Wellfounded.eval winmove i in
      Instance.is_empty (Instance.inter m.true_facts m.undefined))

(* Random well-formed rules: positive atoms over a small var pool first,
   then head/neg/ineq drawing only from the positive variables. *)
let gen_rule =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z"; "w" ] in
  let pred = oneofl [ "P"; "Q"; "R" ] in
  let edb_pred = oneofl [ "A"; "B" ] in
  let term =
    frequency
      [ (4, map (fun v -> Ast.Var v) var);
        (1, map (fun k -> Ast.Const (Value.Int k)) (int_range 0 3)) ]
  in
  let atom p arity = map (fun ts -> Ast.atom p ts) (list_size (return arity) term) in
  let* pos = list_size (int_range 1 3) (edb_pred >>= fun p -> atom p 2) in
  let pos_vars = List.concat_map Ast.vars_of_atom pos in
  if pos_vars = [] then
    (* all-constant bodies: head must be constant too *)
    let* hp = pred in
    return { Ast.head = Ast.atom hp [ Ast.Const (Value.Int 0) ]; pos; neg = []; ineq = [] }
  else
    let pvar = oneofl pos_vars in
    let pterm = map (fun v -> Ast.Var v) pvar in
    let* hp = pred in
    let* head_terms = list_size (int_range 1 2) pterm in
    let* neg =
      list_size (int_range 0 2)
        (edb_pred >>= fun p ->
         map (fun ts -> Ast.atom p ts) (list_size (return 2) pterm))
    in
    let* ineq = list_size (int_range 0 1) (pair pterm pterm) in
    return { Ast.head = Ast.atom hp head_terms; pos; neg; ineq }

let prop_parser_roundtrip =
  QCheck2.Test.make ~name:"pretty-print then parse is identity" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) gen_rule)
    (fun p ->
      match Ast.check_rule (List.hd p) with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () -> (
        match List.find_opt (fun r -> Result.is_error (Ast.check_rule r)) p with
        | Some _ -> QCheck2.assume_fail ()
        | None -> (
          (* Arities must also be globally consistent for schema_of. *)
          match Ast.schema_of p with
          | exception Invalid_argument _ -> QCheck2.assume_fail ()
          | _ ->
            let p' = Parser.parse_program (Ast.to_string p) in
            Ast.equal_program p p')))

(* The equivalence wall for the indexed engine: the seed's nested-loop
   evaluator is preserved verbatim as [Refeval]; random programs must
   evaluate identically through the reference naive fixpoint, the
   reference seminaive fixpoint and the indexed seminaive engine. *)
let prop_refeval_agrees =
  QCheck2.Test.make ~name:"indexed engine = reference engine (random programs)"
    ~count:300
    (QCheck2.Gen.pair
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) gen_rule)
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 10)
          (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 4)
             (QCheck2.Gen.int_range 0 4))))
    (fun (p, pairs) ->
      match Ast.schema_of p with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | _ ->
        if List.exists (fun r -> Result.is_error (Ast.check_rule r)) p then
          QCheck2.assume_fail ()
        else
          let i =
            Instance.union
              (inst (List.map (fun (a, b) -> fact "A" [ a; b ]) pairs))
              (inst (List.map (fun (a, b) -> fact "B" [ b; a ]) pairs))
          in
          let reference = Refeval.naive p i in
          Instance.equal reference (Refeval.seminaive p i)
          && Instance.equal reference (Eval.seminaive p i))

let prop_stratified_genericity =
  let p = Program.parse comp_tc_src in
  let q = Program.query ~name:"comp-tc" p in
  QCheck2.Test.make ~name:"stratified program is generic" ~count:40
    (gen_graph 5 8) (fun i -> Query.check_generic ~trials:4 q i)

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance: directed unit tests. *)

let test_ivm_basic () =
  let p = Parser.parse_program tc_src in
  let h = Ivm.materialize (Ivm.compile p) (inst [ edge 1 2; edge 2 3 ]) in
  check_bool "T(1,3)" true (Instance.mem (fact "T" [ 1; 3 ]) (Ivm.current h));
  check_bool "an insert loses no fact of a positive program" true
    (Instance.is_empty (Ivm.lost h [ edge 3 4 ]));
  check_bool "what-if lost leaves the handle unmoved" false
    (Instance.mem (fact "T" [ 1; 4 ]) (Ivm.current h))

let test_ivm_unstratifiable () =
  let p = Parser.parse_program winmove_src in
  check_bool "unsupported" false (Stratify.is_stratifiable p);
  match Ivm.compile p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* The equivalence wall for incremental view maintenance, against the
   seed's [Refeval] as oracle. A random sequence mixes two steps: a
   re-materialization at a new input (facts inserted and retracted),
   whose model must equal a from-scratch saturation, and a what-if
   insert, where {!Ivm.lost} must return exactly the facts the
   extension removes from the model without moving the handle. *)

let ivm_oracle p given =
  match Refeval.stratified p given with
  | Ok m -> m
  | Error e -> Alcotest.failf "ivm oracle: %s" e

(* [f ()] and the number of full-model runs ([eval.ivm_applies]) it
   made. *)
let with_applies f =
  let reg = Observe.Metrics.create () in
  let r = Observe.Metrics.with_current reg f in
  ( r,
    List.fold_left
      (fun n (row : Observe.Metrics.row) ->
        if row.name = "eval.ivm_applies" then n + row.count else n)
      0 (Observe.Metrics.snapshot reg) )

(* Which answer {!Ivm.lost} gave: [`Trivial] when the program has no
   negation or the delta adds nothing, [`Fast] when it answered without
   a full-model run, [`Fallback] when it needed one. *)
let lost_route p h facts =
  let lost, applies = with_applies (fun () -> Ivm.lost h facts) in
  let trivial =
    List.for_all (fun (r : Ast.rule) -> r.neg = []) p
    || List.for_all (fun f -> Instance.mem f (Ivm.current h)) facts
  in
  ( lost,
    if applies > 0 then `Fallback else if trivial then `Trivial else `Fast )

let ivm_sequence_ok ?(tally = fun _ _ -> ()) p init steps to_inst =
  let c = Ivm.compile p in
  let h = ref (Ivm.materialize c init) in
  let given = ref init in
  List.for_all
    (fun (rematerialize, adds, rems) ->
      let add = to_inst adds in
      if rematerialize then begin
        given := Instance.union (Instance.diff !given (to_inst rems)) add;
        h := Ivm.materialize c !given;
        Instance.equal (Ivm.current !h) (ivm_oracle p !given)
      end
      else
        let before = ivm_oracle p !given in
        let after = ivm_oracle p (Instance.union !given add) in
        let lost, route = lost_route p !h (Instance.to_list add) in
        tally route lost;
        Instance.equal lost (Instance.diff before after)
        && Instance.equal (Ivm.current !h) before)
    steps

let gen_ivm_steps gen_facts =
  QCheck2.Gen.(list_size (int_range 1 5) (triple bool gen_facts gen_facts))

let prop_ivm_zoo_sequences =
  let progs =
    List.map
      (fun src -> Adom.augment (Parser.parse_program src))
      [ tc_src; comp_tc_src; p1_src; p2_src ]
  in
  let gen_edges =
    QCheck2.Gen.(
      list_size (int_range 0 6) (pair (int_range 0 4) (int_range 0 4)))
  in
  QCheck2.Test.make ~name:"what-if steps = Refeval (zoo)" ~count:60
    (QCheck2.Gen.pair gen_edges (gen_ivm_steps gen_edges))
    (fun (init, steps) ->
      let to_inst pairs = inst (List.map (fun (a, b) -> edge a b) pairs) in
      List.for_all
        (fun p -> ivm_sequence_ok p (to_inst init) steps to_inst)
        progs)

(* Random recursive programs with negation ({!Random_program}): bodies
   over edb {A, B} and idb {P, Q}, negation over both, sometimes topped
   by a stratum negating the recursive [P], and that one sometimes
   negated in turn, so a loss cascades upward. Unstratifiable draws are
   skipped. [ineqs] is the generator's inequality range. *)
let gen_ivm_case ?ineqs () =
  let open QCheck2.Gen in
  let* rules =
    Random_program.program ?ineqs
      ~negatable:[ "A"; "B"; "P"; "Q" ]
      ~rules:(1, 4) ()
  in
  let* top =
    oneofl
      [
        [];
        [ "S(x,y) :- A(x,y), not P(x,y)." ];
        [ "S(x,y) :- A(x,y), not P(x,y)."; "R(x,y) :- B(x,y), not S(x,y)." ];
      ]
  in
  let p = rules @ List.map Parser.parse_rule top in
  let gfacts =
    list_size (int_range 0 6)
      (triple bool (int_range 0 4) (int_range 0 4))
  in
  let* init = gfacts in
  let* steps = gen_ivm_steps gfacts in
  return (p, init, steps)

let ab_facts trips =
  inst
    (List.map (fun (r, a, b) -> fact (if r then "A" else "B") [ a; b ]) trips)

(* About half the draws stratify; [max_gen] leaves room for 300 that
   do. *)
let prop_ivm_random_sequences =
  QCheck2.Test.make ~name:"what-if steps = Refeval (random)" ~count:300
    ~max_gen:1000 (gen_ivm_case ())
    (fun (p, init, steps) ->
      if not (Stratify.is_stratifiable p) then QCheck2.assume_fail ()
      else ivm_sequence_ok p (ab_facts init) steps ab_facts)

(* The same wall over inequality-heavy programs: up to three [!=] per
   rule, sides repeated ([x != x]) or constant, so each is placed at the
   first, a middle or the last atom of a plan, in the evaluator's body
   order, in every Δ-first order of [Ivm]'s propagation and behind every
   seed atom. {!Refeval} tests them on complete valuations only: the
   fixpoint ({!Eval.seminaive}, stratum by stratum) and {!Ivm.lost} at
   every what-if step must agree with it. *)
let prop_ivm_ineq_sequences =
  QCheck2.Test.make ~name:"inequalities: seminaive and lost = Refeval"
    ~count:300 ~max_gen:1000 (gen_ivm_case ~ineqs:(0, 3) ())
    (fun (p, init, steps) ->
      if not (Stratify.is_stratifiable p) then QCheck2.assume_fail ()
      else
        let i = ab_facts init in
        Instance.equal (Eval.stratified_exn p i) (ivm_oracle p i)
        && ivm_sequence_ok p i steps ab_facts)

(* The random wall must reach every answer of {!Ivm.lost}: a fast empty
   answer on a program with negation, the full-model fallback, and a
   loss above a negated derived predicate (an [R] firing blocked by a
   grown [S], itself derived through a negation). Counted over a fixed
   draw of the wall's own generator. *)
let test_ivm_lost_routes () =
  let fast = ref 0 and fallback = ref 0 and cascades = ref 0 in
  let tally route lost =
    match route with
    | `Trivial -> ()
    | `Fast -> incr fast
    | `Fallback ->
      incr fallback;
      if Instance.exists (fun f -> Fact.rel f = "R") lost then incr cascades
  in
  List.iter
    (fun (p, init, steps) ->
      if Stratify.is_stratifiable p then
        check_bool "lost = from-scratch difference" true
          (ivm_sequence_ok ~tally p (ab_facts init) steps ab_facts))
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 22 |]) ~n:300
       (gen_ivm_case ()));
  check_bool "fast answers" true (!fast > 0);
  check_bool "full-model fallbacks" true (!fallback > 0);
  check_bool "cascaded losses" true (!cascades > 0)

(* Directed cases for {!Ivm.lost}: a positive program derives nothing,
   a domain-disjoint insert blocks no old firing of comp-TC (Theorem
   5.3's shape), and a connecting one loses the complement facts it
   covers. *)
let test_ivm_lost () =
  let base = inst [ edge 1 2; edge 2 3 ] in
  let h = Ivm.materialize (Ivm.compile tc) base in
  let lost, n = with_applies (fun () -> Ivm.lost h [ edge 3 1; edge 3 4 ]) in
  check_bool "positive program loses nothing" true (Instance.is_empty lost);
  check_int "positive program: no full-model run" 0 n;
  let p = Adom.augment (Parser.parse_program comp_tc_src) in
  let h = Ivm.materialize (Ivm.compile p) base in
  let lost, n = with_applies (fun () -> Ivm.lost h [ edge 7 8; edge 8 9 ]) in
  check_bool "disjoint insert loses nothing" true (Instance.is_empty lost);
  check_int "disjoint insert: no full-model run" 0 n;
  let lost, n = with_applies (fun () -> Ivm.lost h [ edge 3 1 ]) in
  Alcotest.check instance_testable "connecting insert"
    (Instance.diff (ivm_oracle p base)
       (ivm_oracle p (Instance.add (edge 3 1) base)))
    lost;
  check_bool "connecting insert loses O(3,1)" true
    (Instance.mem (fact "O" [ 3; 1 ]) lost);
  check_int "connecting insert: one full-model run" 1 n;
  check_bool "handle unmoved" true
    (Instance.equal (Ivm.current h) (ivm_oracle p base));
  (* The negated R grows only through a chain of positive rules, each of
     which must be propagated. *)
  let p =
    Parser.parse_program
      "P(x) :- E(x,y). Q(x) :- P(x). R(x) :- Q(x). O(x) :- F(x), not R(x)."
  in
  let base = inst [ fact "F" [ 1 ]; fact "F" [ 2 ] ] in
  let h = Ivm.materialize (Ivm.compile p) base in
  Alcotest.check instance_testable "loss through a positive chain"
    (inst [ fact "O" [ 1 ] ])
    (Ivm.lost h [ edge 1 2 ]);
  (* Both negated atoms of one old firing grow at once: the seed is
     judged against the old model, where neither was present. *)
  let p = Parser.parse_program "O(x) :- F(x), not A(x), not B(x)." in
  let h = Ivm.materialize (Ivm.compile p) base in
  Alcotest.check instance_testable "two grown negations block one firing"
    (inst [ fact "O" [ 1 ] ])
    (Ivm.lost h [ fact "A" [ 1 ]; fact "B" [ 1 ] ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_naive_eq_seminaive_tc;
      prop_naive_eq_seminaive_sp;
      prop_tc_idempotent;
      prop_tc_monotone;
      prop_wf_total_on_stratifiable;
      prop_wf_winmove_partition;
      prop_parser_roundtrip;
      prop_refeval_agrees;
      prop_stratified_genericity;
    ]

let () =
  Alcotest.run "datalog"
    [
      ( "parser",
        [
          Alcotest.test_case "tc" `Quick test_parse_tc;
          Alcotest.test_case "literals" `Quick test_parse_literals;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "invention" `Quick test_parse_invention;
          Alcotest.test_case "negative int" `Quick test_parse_negative_int;
          Alcotest.test_case "comments" `Quick test_parse_comments_and_newlines;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "arity conflict located" `Quick
            test_parse_arity_conflict_located;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "pretty roundtrip invention" `Quick
            test_pretty_roundtrip_invention;
        ] );
      ("ast", [ Alcotest.test_case "schemas" `Quick test_schemas ]);
      ( "stratify",
        [
          Alcotest.test_case "tc" `Quick test_stratify_tc;
          Alcotest.test_case "two levels" `Quick test_stratify_two_levels;
          Alcotest.test_case "unstratifiable" `Quick test_unstratifiable;
          Alcotest.test_case "negation no cycle" `Quick test_even_odd_stratifiable;
          Alcotest.test_case "finest agrees" `Quick test_finest_agrees;
          Alcotest.test_case "finest rejects win-move" `Quick
            test_finest_rejects_winmove;
          Alcotest.test_case "finest splits" `Quick
            test_finest_splits_independent_preds;
          Alcotest.test_case "dependencies" `Quick test_dependencies;
        ] );
      ( "eval",
        [
          Alcotest.test_case "tc path" `Quick test_eval_tc_path;
          Alcotest.test_case "tc cycle" `Quick test_eval_tc_cycle;
          Alcotest.test_case "naive = seminaive" `Quick
            test_naive_equals_seminaive_tc;
          Alcotest.test_case "inequalities" `Quick test_eval_ineq;
          Alcotest.test_case "sp negation" `Quick test_eval_semipositive_negation;
          Alcotest.test_case "stratified comp-tc" `Quick
            test_eval_stratified_comp_tc;
          Alcotest.test_case "constants" `Quick test_eval_constants_in_rules;
          Alcotest.test_case "empty input" `Quick test_eval_empty_input;
          Alcotest.test_case "triangles" `Quick test_eval_multi_join;
        ] );
      ( "hashjoin",
        [
          Alcotest.test_case "tc" `Quick test_hashjoin_tc;
          Alcotest.test_case "repeated vars" `Quick test_hashjoin_repeated_vars;
          Alcotest.test_case "constants + ineq" `Quick
            test_hashjoin_constants_and_ineq;
          Alcotest.test_case "stratified" `Quick test_hashjoin_stratified;
          Alcotest.test_case "invention" `Quick test_hashjoin_invention;
        ] );
      ( "refeval",
        [
          Alcotest.test_case "zoo agreement" `Quick test_refeval_zoo_agreement;
          Alcotest.test_case "naive = seminaive" `Quick
            test_refeval_naive_seminaive;
        ] );
      ( "wellfounded",
        [
          Alcotest.test_case "chain" `Quick test_wf_simple_chain;
          Alcotest.test_case "draw cycle" `Quick test_wf_draw_cycle;
          Alcotest.test_case "cycle with escape" `Quick test_wf_cycle_with_escape;
          Alcotest.test_case "doubled step semi-positive" `Quick
            test_doubled_step_is_semipositive;
          Alcotest.test_case "doubling agrees (win-move)" `Quick
            test_doubling_agrees_on_winmove;
          Alcotest.test_case "doubling agrees (stratifiable)" `Quick
            test_doubling_agrees_on_stratifiable;
          Alcotest.test_case "agrees with stratified" `Quick
            test_wf_agrees_with_stratified;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "rules" `Quick test_rule_connectivity;
          Alcotest.test_case "neg not counted" `Quick
            test_rule_connectivity_neg_not_counted;
          Alcotest.test_case "example 5.1 P1" `Quick test_example_51_p1;
          Alcotest.test_case "example 5.1 P2" `Quick test_example_51_p2;
          Alcotest.test_case "semicon ok" `Quick test_semicon_last_stratum_ok;
          Alcotest.test_case "semicon violated" `Quick
            test_semicon_violation_by_dependency;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "classification" `Quick test_fragments;
          Alcotest.test_case "bounds" `Quick test_fragment_bounds;
        ] );
      ( "ilog",
        [
          Alcotest.test_case "basic invention" `Quick test_ilog_basic_invention;
          Alcotest.test_case "skolem identity" `Quick
            test_ilog_same_tuple_same_value;
          Alcotest.test_case "divergence" `Quick test_ilog_divergence;
          Alcotest.test_case "validate" `Quick test_ilog_validate;
          Alcotest.test_case "unsafe positions" `Quick test_ilog_unsafe_positions;
          Alcotest.test_case "weakly safe" `Quick test_ilog_weakly_safe;
          Alcotest.test_case "join on invented" `Quick
            test_ilog_invention_as_join_value;
          Alcotest.test_case "query constants" `Quick test_query_constants;
        ] );
      ("depgraph", [ Alcotest.test_case "dot export" `Quick test_depgraph ]);
      ( "points-of-order",
        [
          Alcotest.test_case "positive" `Quick test_points_positive;
          Alcotest.test_case "edb negation" `Quick test_points_edb_negation;
          Alcotest.test_case "semicon" `Quick test_points_semicon;
          Alcotest.test_case "blocking" `Quick test_points_blocking;
        ] );
      ( "program",
        [
          Alcotest.test_case "adom rules" `Quick test_adom_rules;
          Alcotest.test_case "adom noop" `Quick test_adom_augment_noop;
          Alcotest.test_case "api" `Quick test_program_api;
          Alcotest.test_case "bad output" `Quick test_program_rejects_bad_output;
          Alcotest.test_case "unstratifiable" `Quick
            test_program_rejects_unstratifiable;
          Alcotest.test_case "well-founded" `Quick
            test_program_wellfounded_semantics;
          Alcotest.test_case "as query" `Quick test_program_as_query;
        ] );
      ( "ivm",
        [
          Alcotest.test_case "basic" `Quick test_ivm_basic;
          Alcotest.test_case "unstratifiable" `Quick test_ivm_unstratifiable;
          Alcotest.test_case "lost" `Quick test_ivm_lost;
          Alcotest.test_case "lost routes" `Quick test_ivm_lost_routes;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_ivm_zoo_sequences; prop_ivm_random_sequences ] );
      ( "ivm-ineq",
        [ QCheck_alcotest.to_alcotest prop_ivm_ineq_sequences ] );
      ("properties", qcheck_cases);
    ]
