(* Tests for the relational substrate: values, facts, schemas, instances,
   homomorphisms, components, multisets, distributed instances, queries. *)

open Relational

let v = Value.int
let s = Value.sym
let fact r args = Fact.make r (List.map Value.int args)
let edge a b = fact "E" [ a; b ]

let inst facts = Instance.of_list facts

let check_bool name expected actual =
  Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  check_bool "int < sym" true (Value.compare (v 5) (s "a") < 0);
  check_bool "sym < skolem" true
    (Value.compare (s "z") (Value.Skolem ("f", [ v 1 ])) < 0);
  check_int "int eq" 0 (Value.compare (v 3) (v 3));
  check_bool "skolem structural" true
    (Value.equal (Value.Skolem ("f", [ v 1; s "a" ]))
       (Value.Skolem ("f", [ v 1; s "a" ])));
  check_bool "skolem name differs" false
    (Value.equal (Value.Skolem ("f", [])) (Value.Skolem ("g", [])))

let test_value_string () =
  Alcotest.(check string) "int" "42" (Value.to_string (v 42));
  Alcotest.(check string) "sym" "abc" (Value.to_string (s "abc"));
  Alcotest.(check string) "skolem" "f(1,a)"
    (Value.to_string (Value.Skolem ("f", [ v 1; s "a" ])));
  check_bool "of_string int" true (Value.equal (Value.of_string "7") (v 7));
  check_bool "of_string sym" true (Value.equal (Value.of_string "x") (s "x"))

let test_value_invented () =
  check_bool "int not invented" false (Value.is_invented (v 1));
  check_bool "skolem invented" true (Value.is_invented (Value.Skolem ("f", [])))

let test_fresh_not_in () =
  let used = Value.Set.of_list [ v 1_000_000; v 1_000_001 ] in
  let fresh = Value.fresh_not_in used 3 in
  check_int "three fresh" 3 (List.length fresh);
  List.iter
    (fun x -> check_bool "fresh not used" false (Value.Set.mem x used))
    fresh;
  check_int "fresh distinct" 3 (Value.Set.cardinal (Value.Set.of_list fresh))

(* ------------------------------------------------------------------ *)
(* Fact *)

let test_fact_basic () =
  let f = edge 1 2 in
  Alcotest.(check string) "rel" "E" (Fact.rel f);
  check_int "arity" 2 (Fact.arity f);
  check_bool "arg0" true (Value.equal (Fact.arg f 0) (v 1));
  check_bool "adom" true
    (Value.Set.equal (Fact.adom f) (Value.Set.of_list [ v 1; v 2 ]))

let test_fact_nullary_rejected () =
  Alcotest.check_raises "nullary"
    (Invalid_argument "Fact.make: nullary facts are not supported") (fun () ->
      ignore (Fact.make "R" []))

let test_fact_roundtrip () =
  let f = Fact.of_string "R(a, 1, b)" in
  Alcotest.(check string) "print" "R(a,1,b)" (Fact.to_string f);
  check_bool "reparse" true (Fact.equal f (Fact.of_string (Fact.to_string f)))

(* A parenthesis inside an argument is a syntax error, not part of a
   value: "E(1,2)))" once parsed to E(1, "2)))"). *)
let test_fact_of_string_rejects_parens () =
  List.iter
    (fun bad ->
      Alcotest.check_raises bad
        (Invalid_argument
           ("Fact.of_string: parenthesis inside an argument in " ^ bad))
        (fun () -> ignore (Fact.of_string bad)))
    [ "E(1,2)))"; "E((1,2)"; "E(1,(2))" ];
  Alcotest.check_raises "unclosed"
    (Invalid_argument "Fact.of_string: missing ')' in E(1,2") (fun () ->
      ignore (Fact.of_string "E(1,2"))

(* A quoted argument reads as the symbol a program's lexer makes of it
   (once the quotes stayed in the value); any other quote is an error,
   and so is a second fact without the '.' before it. *)
let test_fact_of_string_quotes () =
  let sym r args = Fact.make r args in
  List.iter
    (fun (src, expected) ->
      check_bool src true (Fact.equal (Fact.of_string src) expected))
    [
      ("E(1,\"a\")", sym "E" [ Value.int 1; Value.sym "a" ]);
      ("E(1, \"a\" )", Fact.of_string "E(1,a)");
      ("E(\"12\")", sym "E" [ Value.sym "12" ]);
      ("E(\"a, b)\")", sym "E" [ Value.sym "a, b)" ]);
    ];
  List.iter
    (fun bad ->
      Alcotest.check_raises bad
        (Invalid_argument ("Fact.of_string: unbalanced quote in " ^ bad))
        (fun () -> ignore (Fact.of_string bad)))
    [ "E(1,\"a)"; "E(1,a\"b)"; "E(1,\"a\"b)"; "E(\"a\"\"b\")" ];
  Alcotest.check_raises "two facts"
    (Invalid_argument "Fact.of_string: missing '.' after E(1,2)") (fun () ->
      ignore (Fact.of_string "E(1,2) E(2,3)"))

let test_fact_order_total () =
  let f1 = edge 1 2 and f2 = edge 1 3 and f3 = fact "F" [ 1; 2 ] in
  check_bool "E(1,2) < E(1,3)" true (Fact.compare f1 f2 < 0);
  check_bool "E < F" true (Fact.compare f1 f3 < 0);
  check_bool "arity orders" true (Fact.compare (fact "E" [ 1 ]) (edge 9 9) < 0)

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_basic () =
  let sg = Schema.of_list [ ("E", 2); ("V", 1) ] in
  Alcotest.(check (option int)) "E arity" (Some 2) (Schema.arity sg "E");
  Alcotest.(check (option int)) "missing" None (Schema.arity sg "X");
  check_bool "fact over" true (Schema.fact_over sg (edge 1 2));
  check_bool "wrong arity" false (Schema.fact_over sg (fact "E" [ 1 ]));
  check_bool "unknown rel" false (Schema.fact_over sg (fact "X" [ 1 ]))

let test_schema_guards () =
  Alcotest.check_raises "zero arity"
    (Invalid_argument "Schema.add: relation R has arity 0 < 1") (fun () ->
      ignore (Schema.of_list [ ("R", 0) ]));
  Alcotest.check_raises "conflict"
    (Invalid_argument "Schema.add: relation R bound to arities 1 and 2")
    (fun () -> ignore (Schema.of_list [ ("R", 1); ("R", 2) ]))

let test_schema_algebra () =
  let a = Schema.of_list [ ("E", 2) ] and b = Schema.of_list [ ("V", 1) ] in
  let u = Schema.union a b in
  check_bool "union has both" true (Schema.mem u "E" && Schema.mem u "V");
  check_bool "subset" true (Schema.subset a u);
  check_bool "disjoint" true (Schema.disjoint a b);
  check_bool "diff" true (Schema.equal (Schema.diff u b) a);
  Alcotest.check_raises "disjoint_union clash"
    (Invalid_argument "Schema.disjoint_union: shared relation E") (fun () ->
      ignore (Schema.disjoint_union a a))

let test_schema_all_facts () =
  let sg = Schema.of_list [ ("E", 2); ("V", 1) ] in
  let dom = Value.Set.of_list [ v 1; v 2 ] in
  let facts = Schema.all_facts sg dom in
  (* 2^2 E-facts + 2 V-facts *)
  check_int "count" 6 (List.length facts)

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_basic () =
  let i = inst [ edge 1 2; edge 2 3 ] in
  check_int "cardinal" 2 (Instance.cardinal i);
  check_bool "mem" true (Instance.mem (edge 1 2) i);
  check_bool "adom" true
    (Value.Set.equal (Instance.adom i) (Value.Set.of_list [ v 1; v 2; v 3 ]))

let test_instance_restrict () =
  let i = inst [ edge 1 2; fact "V" [ 1 ]; fact "E" [ 1 ] ] in
  let sg = Schema.of_list [ ("E", 2) ] in
  let r = Instance.restrict i sg in
  check_int "only binary E" 1 (Instance.cardinal r);
  check_bool "kept the right one" true (Instance.mem (edge 1 2) r)

let test_instance_induced () =
  let i = inst [ edge 1 2; edge 2 3; edge 3 4 ] in
  let c = Value.Set.of_list [ v 1; v 2; v 3 ] in
  let ind = Instance.induced i c in
  check_bool "induced" true (Instance.equal ind (inst [ edge 1 2; edge 2 3 ]));
  let t = Instance.touching i (Value.Set.singleton (v 3)) in
  check_bool "touching" true (Instance.equal t (inst [ edge 2 3; edge 3 4 ]))

let test_instance_domain_relations () =
  let i = inst [ edge 1 2 ] in
  check_bool "distinct yes" true
    (Instance.is_domain_distinct_from (inst [ edge 2 3 ]) i);
  check_bool "distinct no" false
    (Instance.is_domain_distinct_from (inst [ edge 2 1 ]) i);
  check_bool "disjoint yes" true
    (Instance.is_domain_disjoint_from (inst [ edge 3 4 ]) i);
  check_bool "disjoint no" false
    (Instance.is_domain_disjoint_from (inst [ edge 2 3 ]) i);
  check_bool "empty vacuous" true
    (Instance.is_domain_distinct_from Instance.empty i
    && Instance.is_domain_disjoint_from Instance.empty i)

let test_instance_schema_inference () =
  let i = inst [ edge 1 2; fact "V" [ 7 ] ] in
  let sg = Instance.schema i in
  Alcotest.(check (option int)) "E" (Some 2) (Schema.arity sg "E");
  Alcotest.(check (option int)) "V" (Some 1) (Schema.arity sg "V")

(* ------------------------------------------------------------------ *)
(* Homomorphism *)

let test_hom_find () =
  let p2 = inst [ edge 1 2; edge 2 3 ] in
  let loopish = inst [ edge 5 6; edge 6 5 ] in
  check_bool "hom exists" true (Homomorphism.exists p2 loopish);
  let single = inst [ edge 5 6 ] in
  check_bool "no hom into single edge" false (Homomorphism.exists p2 single);
  check_bool "injective into bigger path" true
    (Homomorphism.exists_injective p2 (inst [ edge 7 8; edge 8 9; edge 9 1 ]));
  check_bool "no injective into loop of 2" false
    (Homomorphism.exists_injective p2 loopish)

let test_hom_validity () =
  let p2 = inst [ edge 1 2; edge 2 3 ] in
  let target = inst [ edge 5 6; edge 6 7 ] in
  (match Homomorphism.find p2 target with
  | None -> Alcotest.fail "expected a homomorphism"
  | Some h ->
    check_bool "valid" true (Homomorphism.is_homomorphism h p2 target));
  match Homomorphism.find_injective p2 target with
  | None -> Alcotest.fail "expected injective"
  | Some h -> check_bool "injective" true (Homomorphism.is_injective h)

let test_permutations () =
  let set = Value.Set.of_list [ v 1; v 2; v 3 ] in
  let perms = Homomorphism.permutations_of set in
  check_int "3! permutations" 6 (List.length perms);
  List.iter
    (fun h -> check_bool "each injective" true (Homomorphism.is_injective h))
    perms

(* ------------------------------------------------------------------ *)
(* Component *)

let test_components () =
  let i = inst [ edge 1 2; edge 2 3; edge 10 11; fact "V" [ 99 ] ] in
  let cs = Component.components i in
  check_int "three components" 3 (List.length cs);
  List.iter
    (fun c ->
      check_bool "definitional check" true (Component.is_component_of c i))
    cs;
  let u = List.fold_left Instance.union Instance.empty cs in
  check_bool "partition" true (Instance.equal u i)

let test_component_of () =
  let i = inst [ edge 1 2; edge 10 11 ] in
  check_bool "component of 2" true
    (Instance.equal (Component.component_of i (v 2)) (inst [ edge 1 2 ]));
  check_bool "absent value" true
    (Instance.is_empty (Component.component_of i (v 77)))

let test_component_empty () =
  check_int "empty has none" 0 (Component.count Instance.empty)

(* ------------------------------------------------------------------ *)
(* Multiset *)

let test_multiset_laws () =
  let f = edge 1 2 and g = edge 3 4 in
  let m = Multiset.(add f (add f (add g empty))) in
  check_int "size" 3 (Multiset.size m);
  check_int "count f" 2 (Multiset.count f m);
  check_int "support" 2 (Fact.Set.cardinal (Multiset.support m));
  let m' = Multiset.remove_one f m in
  check_int "after remove" 1 (Multiset.count f m');
  check_bool "sub" true (Multiset.sub m' m);
  check_bool "not sub" false (Multiset.sub m m');
  let d = Multiset.diff m m' in
  check_int "diff size" 1 (Multiset.size d);
  let u = Multiset.union m m' in
  check_int "union multiplicities add" 3 (Multiset.count f u)

let test_multiset_remove_absent () =
  let f = edge 1 2 in
  check_bool "identity" true
    (Multiset.equal Multiset.empty (Multiset.remove_one f Multiset.empty))

(* ------------------------------------------------------------------ *)
(* Distributed *)

let test_distributed () =
  let net = Distributed.network_of_ints [ 2; 1; 2 ] in
  check_int "dedup" 2 (List.length net);
  let d = Distributed.create net in
  let d = Distributed.set_local d (v 1) (inst [ edge 1 2 ]) in
  let d = Distributed.update_local d (v 2) (Instance.add (edge 2 3)) in
  check_bool "global union" true
    (Instance.equal (Distributed.global d) (inst [ edge 1 2; edge 2 3 ]));
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Distributed.local: node 9 not in network") (fun () ->
      ignore (Distributed.local d (v 9)))

let test_network_nonempty () =
  Alcotest.check_raises "empty network"
    (Invalid_argument "Distributed: a network must be nonempty") (fun () ->
      ignore (Distributed.network_of_ints []))

(* ------------------------------------------------------------------ *)
(* Query *)

let graph_schema = Schema.of_list [ ("E", 2) ]

let reverse_query =
  Query.make ~name:"reverse" ~input:graph_schema ~output:graph_schema (fun i ->
      Instance.fold
        (fun f acc ->
          Instance.add (Fact.make "E" [ Fact.arg f 1; Fact.arg f 0 ]) acc)
        i Instance.empty)

let test_query_apply () =
  let out = Query.apply reverse_query (inst [ edge 1 2; fact "V" [ 3 ] ]) in
  check_bool "restricted + reversed" true
    (Instance.equal out (inst [ edge 2 1 ]))

let test_query_generic () =
  check_bool "reverse is generic" true
    (Query.check_generic reverse_query (inst [ edge 1 2; edge 2 3 ]))

let non_generic =
  Query.make ~name:"likes-7" ~input:graph_schema ~output:graph_schema (fun i ->
      Instance.filter (fun f -> Value.equal (Fact.arg f 0) (v 7)) i)

let test_query_non_generic_detected () =
  check_bool "constant test caught" false
    (Query.check_generic non_generic (inst [ edge 7 2; edge 2 3 ]))

(* The same query names its constant: it is generic under the
   permutations that fix 7, and those are all [check_generic] tries. *)
let test_query_generic_under_constants () =
  let q = { non_generic with Query.constants = [ v 7 ] } in
  check_bool "generic once 7 is fixed" true
    (Query.check_generic q (inst [ edge 7 2; edge 2 3 ]));
  check_bool "built with ~constants" true
    (Query.check_generic
       (Query.make ~constants:[ v 7 ] ~name:"likes-7" ~input:graph_schema
          ~output:graph_schema non_generic.Query.eval)
       (inst [ edge 7 2; edge 2 3; edge 7 7 ]))

(* ------------------------------------------------------------------ *)
(* Io + Dot *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_io_roundtrip () =
  let i = inst [ edge 1 2; edge 2 3; fact "V" [ 7 ] ] in
  check_bool "roundtrip" true
    (Instance.equal i (Io.parse_facts (Io.print_facts i)))

let test_io_comments_and_dots () =
  let i =
    Io.parse_facts "% a comment with. dots\nE(1,2). E(2,3).\n\n  E(3,4)\n"
  in
  check_int "three facts" 3 (Instance.cardinal i);
  check_bool "a '.' inside quotes is part of the constant" true
    (Instance.equal
       (Io.parse_facts "E(1,\"a.b\"). E(2,a)")
       (inst
          [
            Fact.make "E" [ Value.int 1; Value.sym "a.b" ];
            Fact.make "E" [ Value.int 2; Value.sym "a" ];
          ]))

let test_dot_golden () =
  (* Exact output for a small digraph: edges sorted, nodes quoted. *)
  let i = inst [ edge 2 3; edge 1 2; edge 1 3 ] in
  Alcotest.(check string) "golden"
    "digraph G {\n\
    \  \"1\" -> \"2\";\n\
    \  \"1\" -> \"3\";\n\
    \  \"2\" -> \"3\";\n\
     }"
    (Dot.of_relation i);
  Alcotest.(check string) "golden empty" "digraph G {\n}"
    (Dot.of_relation (inst [ fact "V" [ 1 ] ]))

let test_dot () =
  let i = inst [ edge 1 2 ] in
  let s = Dot.of_relation i in
  check_bool "digraph" true (contains s "digraph G {");
  check_bool "edge" true (contains s "\"1\" -> \"2\";");
  let h =
    Distributed.of_assignment
      (Distributed.network_of_ints [ 1; 2 ])
      [ (v 1, i) ]
  in
  let s = Dot.of_distributed h in
  check_bool "cluster" true (contains s "subgraph cluster_0");
  check_bool "namespaced" true (contains s "\"c0_1\" -> \"c0_2\";")

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_small_graph =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* edges = list_size (return n) (pair (int_range 0 6) (int_range 0 6)) in
    return (inst (List.map (fun (a, b) -> edge a b) edges)))

let prop_components_partition =
  QCheck2.Test.make ~name:"components partition the instance" ~count:200
    gen_small_graph (fun i ->
      let cs = Component.components i in
      let union = List.fold_left Instance.union Instance.empty cs in
      Instance.equal union i
      && List.for_all (fun c -> Component.is_component_of c i) cs)

let prop_components_pairwise_disjoint =
  QCheck2.Test.make ~name:"components pairwise adom-disjoint" ~count:200
    gen_small_graph (fun i ->
      let cs = Array.of_list (Component.components i) in
      let ok = ref true in
      Array.iteri
        (fun a ca ->
          Array.iteri
            (fun b cb ->
              if a < b && not (Instance.is_domain_disjoint_from ca cb) then
                ok := false)
            cs)
        cs;
      !ok)

let prop_adom_union =
  QCheck2.Test.make ~name:"adom of union is union of adoms" ~count:200
    (QCheck2.Gen.pair gen_small_graph gen_small_graph) (fun (a, b) ->
      Value.Set.equal
        (Instance.adom (Instance.union a b))
        (Value.Set.union (Instance.adom a) (Instance.adom b)))

let prop_induced_monotone =
  QCheck2.Test.make ~name:"induced subinstance is a subset" ~count:200
    gen_small_graph (fun i ->
      let dom = Instance.adom i in
      Value.Set.for_all
        (fun x -> Instance.subset (Instance.induced i (Value.Set.singleton x)) i)
        dom)

let gen_multiset_ops =
  QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 3) (int_range 0 3)))

let prop_multiset_union_size =
  QCheck2.Test.make ~name:"multiset union adds sizes" ~count:200
    (QCheck2.Gen.pair gen_multiset_ops gen_multiset_ops) (fun (xs, ys) ->
      let mk l = Multiset.of_list (List.map (fun (a, b) -> edge a b) l) in
      let a = mk xs and b = mk ys in
      Multiset.size (Multiset.union a b) = Multiset.size a + Multiset.size b)

let prop_multiset_diff_union =
  QCheck2.Test.make ~name:"(a + b) - b = a" ~count:200
    (QCheck2.Gen.pair gen_multiset_ops gen_multiset_ops) (fun (xs, ys) ->
      let mk l = Multiset.of_list (List.map (fun (a, b) -> edge a b) l) in
      let a = mk xs and b = mk ys in
      Multiset.equal (Multiset.diff (Multiset.union a b) b) a)

(* Random instances over a mixed schema with int and symbol values, all
   of which survive the fact-file syntax. *)
let gen_io_instance =
  QCheck2.Gen.(
    let gen_value =
      oneof
        [
          map Value.int (int_range 0 99);
          map Value.sym (oneofl [ "a"; "b"; "foo"; "x1" ]);
        ]
    in
    let gen_fact =
      let* name, arity = oneofl [ ("E", 2); ("V", 1); ("R", 3) ] in
      let* args = list_size (return arity) gen_value in
      return (Fact.make name args)
    in
    map Instance.of_list (list_size (int_range 0 15) gen_fact))

let prop_io_roundtrip =
  QCheck2.Test.make ~name:"Io print/parse roundtrip" ~count:200 gen_io_instance
    (fun i -> Instance.equal i (Io.parse_facts (Io.print_facts i)))

let prop_fact_compare_total_order =
  QCheck2.Test.make ~name:"fact compare antisymmetric" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 4) (QCheck2.Gen.int_range 0 4))
       (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 4) (QCheck2.Gen.int_range 0 4)))
    (fun ((a, b), (c, d)) ->
      let f = edge a b and g = edge c d in
      let cmp = Fact.compare f g in
      (cmp = 0) = Fact.equal f g && cmp = -Fact.compare g f)

(* Range reads and copy-free multiset operations, each against the
   whole-structure fold it replaced. The relation names prefix one
   another, so a range that runs one fact too far, or stops one short,
   shows. *)

let range_names = [ "D"; "E"; "E2"; "E_x"; "Ex"; "F" ]

let gen_named_instance =
  QCheck2.Gen.(
    let gen_fact =
      let* name = oneofl range_names in
      let* args = list_size (int_range 1 2) (int_range 0 3) in
      return (Fact.make name (List.map Value.int args))
    in
    map Instance.of_list (list_size (int_range 0 25) gen_fact))

let fold_filter keep i =
  Instance.fold (fun f acc -> if keep (Fact.rel f) then f :: acc else acc) i []

let prop_by_rel_is_fold =
  QCheck2.Test.make ~name:"by_rel = the whole-instance fold, same order"
    ~count:300 ~print:Instance.to_string gen_named_instance (fun i ->
      List.for_all
        (fun name ->
          List.equal Fact.equal (Instance.by_rel i name)
            (fold_filter (String.equal name) i))
        ("" :: "Ea" :: "G" :: range_names))

let prop_by_prefix_is_filter =
  QCheck2.Test.make ~name:"by_prefix = a starts_with filter, same order"
    ~count:300 ~print:Instance.to_string gen_named_instance (fun i ->
      List.for_all
        (fun prefix ->
          let filter i = fold_filter (String.starts_with ~prefix) i in
          List.equal Fact.equal (Instance.by_prefix i prefix) (filter i)
          && Instance.by_prefix Instance.empty prefix = [])
        [ ""; "A"; "D"; "E"; "E2"; "E_"; "E_x"; "Ex"; "Exy"; "F"; "Z" ])

let gen_multiset =
  QCheck2.Gen.(
    map
      (List.fold_left
         (fun m ((a, b), n) -> Multiset.add ~copies:n (edge a b) m)
         Multiset.empty)
      (list_size (int_range 0 8)
         (pair (pair (int_range 0 3) (int_range 0 3)) (int_range 0 4))))

let print_multiset = Format.asprintf "%a" Multiset.pp

let prop_multiset_union_is_fold =
  QCheck2.Test.make ~name:"multiset union = the fold of add" ~count:300
    ~print:QCheck2.Print.(pair print_multiset print_multiset)
    (QCheck2.Gen.pair gen_multiset gen_multiset) (fun (a, b) ->
      Multiset.equal (Multiset.union a b)
        (Multiset.fold (fun f n t -> Multiset.add ~copies:n f t) b a))

let prop_multiset_diff_is_fold =
  QCheck2.Test.make ~name:"multiset diff = the fold over the first"
    ~count:300
    ~print:QCheck2.Print.(pair print_multiset print_multiset)
    (QCheck2.Gen.pair gen_multiset gen_multiset) (fun (a, b) ->
      let fold_diff a b =
        Multiset.fold
          (fun f n t ->
            let k = n - Multiset.count f b in
            if k > 0 then Multiset.add ~copies:k f t else t)
          a Multiset.empty
      in
      (* b ⊆ a as well, the shape of a delivery. *)
      let sub = Multiset.diff a (Multiset.diff a b) in
      Multiset.equal (Multiset.diff a b) (fold_diff a b)
      && Multiset.equal (Multiset.diff a sub) (fold_diff a sub))

let prop_multiset_of_instance_is_fold =
  QCheck2.Test.make ~name:"multiset of_instance = the fold of add" ~count:300
    ~print:Instance.to_string gen_named_instance (fun i ->
      Multiset.equal (Multiset.of_instance i)
        (Instance.fold (fun f t -> Multiset.add f t) i Multiset.empty))

let prop_adom_is_fold =
  QCheck2.Test.make ~name:"adom = the fold of per-fact unions" ~count:300
    ~print:Instance.to_string gen_named_instance (fun i ->
      Value.Set.equal (Instance.adom i)
        (Instance.fold
           (fun f acc -> Value.Set.union (Fact.adom f) acc)
           i Value.Set.empty))

let prop_multiset_nth =
  QCheck2.Test.make ~name:"multiset nth = List.nth of to_list" ~count:300
    ~print:print_multiset gen_multiset (fun b ->
      let l = Multiset.to_list b in
      let raises k =
        match Multiset.nth b k with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun k -> Fact.equal (Multiset.nth b k) (List.nth l k))
        (List.init (Multiset.size b) Fun.id)
      && raises (-1)
      && raises (Multiset.size b))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_components_partition;
      prop_components_pairwise_disjoint;
      prop_adom_union;
      prop_induced_monotone;
      prop_multiset_union_size;
      prop_multiset_diff_union;
      prop_io_roundtrip;
      prop_fact_compare_total_order;
    ]

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "strings" `Quick test_value_string;
          Alcotest.test_case "invented" `Quick test_value_invented;
          Alcotest.test_case "fresh_not_in" `Quick test_fresh_not_in;
        ] );
      ( "fact",
        [
          Alcotest.test_case "basic" `Quick test_fact_basic;
          Alcotest.test_case "nullary rejected" `Quick test_fact_nullary_rejected;
          Alcotest.test_case "roundtrip" `Quick test_fact_roundtrip;
          Alcotest.test_case "of_string rejects parentheses in arguments"
            `Quick test_fact_of_string_rejects_parens;
          Alcotest.test_case "of_string reads quoted constants" `Quick
            test_fact_of_string_quotes;
          Alcotest.test_case "total order" `Quick test_fact_order_total;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "guards" `Quick test_schema_guards;
          Alcotest.test_case "algebra" `Quick test_schema_algebra;
          Alcotest.test_case "all_facts" `Quick test_schema_all_facts;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basic" `Quick test_instance_basic;
          Alcotest.test_case "restrict" `Quick test_instance_restrict;
          Alcotest.test_case "induced/touching" `Quick test_instance_induced;
          Alcotest.test_case "domain relations" `Quick
            test_instance_domain_relations;
          Alcotest.test_case "schema inference" `Quick
            test_instance_schema_inference;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "find" `Quick test_hom_find;
          Alcotest.test_case "validity" `Quick test_hom_validity;
          Alcotest.test_case "permutations" `Quick test_permutations;
        ] );
      ( "component",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "component_of" `Quick test_component_of;
          Alcotest.test_case "empty" `Quick test_component_empty;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "laws" `Quick test_multiset_laws;
          Alcotest.test_case "remove absent" `Quick test_multiset_remove_absent;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "basics" `Quick test_distributed;
          Alcotest.test_case "nonempty" `Quick test_network_nonempty;
        ] );
      ( "query",
        [
          Alcotest.test_case "apply" `Quick test_query_apply;
          Alcotest.test_case "genericity holds" `Quick test_query_generic;
          Alcotest.test_case "genericity violated" `Quick
            test_query_non_generic_detected;
          Alcotest.test_case "genericity under constants" `Quick
            test_query_generic_under_constants;
        ] );
      ( "io-dot",
        [
          Alcotest.test_case "fact roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and dots" `Quick test_io_comments_and_dots;
          Alcotest.test_case "dot golden" `Quick test_dot_golden;
          Alcotest.test_case "dot export" `Quick test_dot;
        ] );
      ("properties", qcheck_cases);
      ( "range-reads",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_by_rel_is_fold;
            prop_by_prefix_is_filter;
            prop_multiset_union_is_fold;
            prop_multiset_diff_is_fold;
            prop_multiset_of_instance_is_fold;
            prop_adom_is_fold;
            prop_multiset_nth;
          ] );
    ]
