(* A regression corpus of classic Datalog¬ programs: each entry carries
   the program, an input instance, the expected output, and the expected
   syntactic fragment / CALM level. Exercises the parser, both engines,
   the classifiers, and the compiler on textbook workloads beyond the
   paper's own query zoo. *)

open Relational
open Datalog

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let instance_testable = Alcotest.testable Instance.pp Instance.equal

type entry = {
  name : string;
  source : string;
  outputs : string list;
  input : string list;        (* fact strings *)
  expected : string list;     (* expected output facts *)
  fragment : string;          (* Fragment.to_string *)
  level : Calm_core.Hierarchy.level;
}

let corpus =
  [
    {
      name = "same-generation";
      source =
        "Sg(x,y) :- Flat(x,y).\n\
         Sg(x,y) :- Up(x,u), Sg(u,v), Down(v,y).";
      outputs = [ "Sg" ];
      input =
        [
          "Up(a,p1)"; "Up(b,p2)"; "Flat(p1,p2)"; "Down(p1,a2)"; "Down(p2,b2)";
        ];
      expected = [ "Sg(p1,p2)"; "Sg(a,b2)" ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "ancestor";
      source =
        "Anc(x,y) :- Par(x,y).\nAnc(x,z) :- Anc(x,y), Par(y,z).";
      outputs = [ "Anc" ];
      input = [ "Par(adam,seth)"; "Par(seth,enos)" ];
      expected = [ "Anc(adam,seth)"; "Anc(seth,enos)"; "Anc(adam,enos)" ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "bill-of-materials";
      source =
        "Uses(x,y) :- Part(x,y).\nUses(x,z) :- Uses(x,y), Part(y,z).";
      outputs = [ "Uses" ];
      input = [ "Part(car,engine)"; "Part(engine,piston)"; "Part(car,wheel)" ];
      expected =
        [
          "Uses(car,engine)"; "Uses(engine,piston)"; "Uses(car,wheel)";
          "Uses(car,piston)";
        ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "symmetric-closure";
      source = "S(x,y) :- E(x,y).\nS(x,y) :- E(y,x).";
      outputs = [ "S" ];
      input = [ "E(1,2)" ];
      expected = [ "S(1,2)"; "S(2,1)" ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "triangle-listing";
      source =
        "O(x,y,z) :- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z.";
      outputs = [ "O" ];
      input = [ "E(1,2)"; "E(2,3)"; "E(3,1)" ];
      expected = [ "O(1,2,3)"; "O(2,3,1)"; "O(3,1,2)" ];
      fragment = "Datalog(!=)";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "non-neighbours";
      source = "O(x,y) :- Adom(x), Adom(y), not E(x,y), x != y.";
      outputs = [ "O" ];
      input = [ "E(1,2)"; "E(2,1)"; "E(2,3)" ];
      expected = [ "O(1,3)"; "O(3,1)"; "O(3,2)" ];
      fragment = "SP-Datalog";
      level = Calm_core.Hierarchy.Domain_distinct;
    };
    {
      name = "sources";
      source =
        "HasIn(y) :- E(x,y).\nO(x) :- Adom(x), not HasIn(x).";
      outputs = [ "O" ];
      input = [ "E(1,2)"; "E(2,3)" ];
      expected = [ "O(1)" ];
      fragment = "con-Datalog^neg";
      level = Calm_core.Hierarchy.Domain_disjoint;
    };
    {
      name = "unreachable-from-root";
      source =
        "R(x) :- Root(x).\n\
         R(y) :- R(x), E(x,y).\n\
         O(x) :- Adom(x), not R(x).";
      outputs = [ "O" ];
      input = [ "Root(1)"; "E(1,2)"; "E(3,4)" ];
      expected = [ "O(3)"; "O(4)" ];
      fragment = "con-Datalog^neg";
      level = Calm_core.Hierarchy.Domain_disjoint;
    };
    {
      name = "two-colourability-violations";
      source =
        "U(x,y) :- E(x,y).\n\
         U(x,y) :- E(y,x).\n\
         OddWalk(x,y) :- U(x,y).\n\
         OddWalk(x,y) :- OddWalk(x,u), U(u,v), U(v,y).\n\
         O(x) :- OddWalk(x,x).";
      outputs = [ "O" ];
      input = [ "E(1,2)"; "E(2,3)"; "E(3,1)"; "E(4,5)" ];
      expected = [ "O(1)"; "O(2)"; "O(3)" ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
    {
      name = "orphans";
      source = "HasParent(x) :- Par(y,x).\nO(x) :- Adom(x), not HasParent(x).";
      outputs = [ "O" ];
      input = [ "Par(adam,seth)"; "Par(seth,enos)" ];
      expected = [ "O(adam)" ];
      fragment = "con-Datalog^neg";
      level = Calm_core.Hierarchy.Domain_disjoint;
    };
    {
      name = "paths-avoiding-banned";
      source =
        "Ok(x,y) :- E(x,y), not Banned(x), not Banned(y).\n\
         P(x,y) :- Ok(x,y).\n\
         P(x,z) :- P(x,y), Ok(y,z).\n\
         O(x,y) :- P(x,y).";
      outputs = [ "O" ];
      input = [ "E(1,2)"; "E(2,3)"; "E(3,4)"; "Banned(3)" ];
      expected = [ "O(1,2)" ];
      fragment = "SP-Datalog";
      level = Calm_core.Hierarchy.Domain_distinct;
    };
    {
      name = "company-control";
      source =
        (* x controls z if x directly owns z or controls an owner chain;
           toy version without aggregation. *)
        "Controls(x,y) :- Owns(x,y).\n\
         Controls(x,z) :- Controls(x,y), Owns(y,z).";
      outputs = [ "Controls" ];
      input = [ "Owns(acme,sub1)"; "Owns(sub1,sub2)" ];
      expected =
        [ "Controls(acme,sub1)"; "Controls(sub1,sub2)"; "Controls(acme,sub2)" ];
      fragment = "Datalog";
      level = Calm_core.Hierarchy.Monotone;
    };
  ]

let facts l = Instance.of_list (List.map Fact.of_string l)

let test_entry e () =
  let program = Program.parse ~outputs:e.outputs e.source in
  (* 1. fragment and level *)
  Alcotest.(check string)
    "fragment" e.fragment
    (Fragment.to_string (Program.fragment program));
  check_bool "level" true
    (Calm_core.Hierarchy.of_fragment (Program.fragment program) = e.level);
  (* 2. stratified output matches *)
  let out = Program.run program (facts e.input) in
  Alcotest.check instance_testable "output" (facts e.expected) out;
  (* 3. the indexed engine agrees with the reference on the full fixpoint *)
  let rules = program.Program.rules in
  (match (Eval.stratified rules (facts e.input), Refeval.stratified rules (facts e.input)) with
  | Ok a, Ok b -> Alcotest.check instance_testable "engines agree" a b
  | _ -> Alcotest.fail "stratification failed");
  (* 4. the well-founded model is total and agrees *)
  check_bool "well-founded agrees" true
    (Wellfounded.is_stratified_compatible rules (facts e.input));
  (* 5. the compiled coordination-free strategy reproduces the output on
        a 2-node network *)
  let compiled = Calm_core.Compile.compile_program program in
  let network = Distributed.network_of_ints [ 51; 52 ] in
  let policy =
    if compiled.Calm_core.Compile.domain_guided_only then
      Network.Policy.hash_value compiled.Calm_core.Compile.query.Query.input network
    else
      Network.Policy.hash_fact compiled.Calm_core.Compile.query.Query.input network
  in
  let result =
    Network.Run.run ~variant:compiled.Calm_core.Compile.variant ~policy
      ~transducer:compiled.Calm_core.Compile.transducer ~input:(facts e.input)
      Network.Run.Round_robin
  in
  check_bool "distributed run quiesced" true result.Network.Run.quiesced;
  Alcotest.check instance_testable "distributed output" out
    result.Network.Run.outputs

let () =
  Alcotest.run "corpus"
    [
      ( "programs",
        List.map
          (fun e -> Alcotest.test_case e.name `Slow (test_entry e))
          corpus );
    ]
