(* Tests for the monotonicity classes, the bounded checkers, and the
   query zoo: these are executable versions of the separations of
   Theorem 3.1 and Lemma 3.2 (re-run at larger bounds by the bench
   harness). *)

open Relational
open Monotone
open Queries

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let violated = Checker.is_violation

let small =
  { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }

(* ------------------------------------------------------------------ *)
(* Classes *)

let test_kind_weaker () =
  check_bool "disjoint weaker than plain" true
    (Classes.weaker Classes.Disjoint Classes.Plain);
  check_bool "distinct weaker than plain" true
    (Classes.weaker Classes.Distinct Classes.Plain);
  check_bool "plain not weaker than disjoint" false
    (Classes.weaker Classes.Plain Classes.Disjoint);
  check_bool "reflexive" true (Classes.weaker Classes.Distinct Classes.Distinct)

let test_admissible () =
  let base = Graph_gen.of_edges [ (1, 2) ] in
  let old_ext = Graph_gen.of_edges [ (2, 1) ] in
  let mixed_ext = Graph_gen.of_edges [ (2, 9) ] in
  let fresh_ext = Graph_gen.of_edges [ (8, 9) ] in
  check_bool "plain admits all" true
    (Classes.admissible Classes.Plain ~base ~extension:old_ext);
  check_bool "distinct rejects old" false
    (Classes.admissible Classes.Distinct ~base ~extension:old_ext);
  check_bool "distinct admits mixed" true
    (Classes.admissible Classes.Distinct ~base ~extension:mixed_ext);
  check_bool "disjoint rejects mixed" false
    (Classes.admissible Classes.Disjoint ~base ~extension:mixed_ext);
  check_bool "disjoint admits fresh" true
    (Classes.admissible Classes.Disjoint ~base ~extension:fresh_ext)

let test_check_pair () =
  let base = Graph_gen.of_edges [ (1, 2) ] in
  let ext = Graph_gen.of_edges [ (2, 3); (3, 1) ] in
  (* comp_tc: path 2->1 appears, so O(2,1) is retracted. *)
  match Classes.check_pair Classes.Plain Zoo.comp_tc ~base ~extension:ext with
  | None -> Alcotest.fail "expected violation"
  | Some v ->
    check_bool "missing is an O fact" true (Fact.rel v.Classes.missing = "O")

(* ------------------------------------------------------------------ *)
(* Enumerate *)

let test_subsets_count () =
  let n l k = Seq.length (Enumerate.subsets_up_to l k) in
  check_int "choose <=2 of 4" 11 (n [ 1; 2; 3; 4 ] 2);
  check_int "all of 3" 8 (n [ 1; 2; 3 ] 3);
  check_int "k beyond n" 8 (n [ 1; 2; 3 ] 9);
  check_int "empty list" 1 (n [] 2)

let test_subsets_order () =
  (* Smallest subsets first, so counterexample search prefers small J. *)
  let sizes =
    Enumerate.subsets_up_to [ 1; 2; 3 ] 3
    |> Seq.map List.length |> List.of_seq
  in
  check_bool "nondecreasing" true
    (List.sort compare sizes = sizes)

let test_instances_enumeration () =
  let sg = Schema.of_list [ ("V", 1) ] in
  let all =
    Enumerate.instances sg ~dom:(Enumerate.value_pool 3) ~max_facts:3
    |> List.of_seq
  in
  check_int "2^3 subsets" 8 (List.length all)

(* The reference scan's extensions are admissible and nonempty, and the
   kernel hands over the same ones, in the same order. *)
let test_extensions_admissible () =
  let base = Graph_gen.of_edges [ (1, 2) ] in
  let sg = Graph_gen.schema in
  let fresh = Enumerate.fresh_pool 2 in
  List.iter
    (fun kind ->
      let reference =
        Refscan.extensions kind ~base ~schema:sg ~fresh ~max_size:2
        |> List.of_seq
      in
      List.iter
        (fun ext ->
          check_bool "admissible" true
            (Classes.admissible kind ~base ~extension:ext);
          check_bool "nonempty" false (Instance.is_empty ext))
        reference;
      let kernel = ref [] in
      let n =
        Enumerate.subsets_until
          (Enumerate.candidates kind ~base ~schema:sg ~fresh)
          2
          (fun facts ->
            kernel := Instance.of_list facts :: !kernel;
            false)
      in
      check_int "kernel count" (List.length reference) n;
      check_bool "kernel = reference" true
        (List.equal Instance.equal reference (List.rev !kernel)))
    [ Classes.Plain; Classes.Distinct; Classes.Disjoint ]

(* The non-walked groups are counted by [candidate_count]: it must be the
   length of the array the walked ones build, also when the fresh list
   repeats a base value or the base has facts outside the schema. *)
let test_candidate_count () =
  let sg = Schema.of_list [ ("E", 2); ("V", 1) ] in
  let bases =
    Enumerate.instances sg ~dom:(Enumerate.value_pool 3) ~max_facts:2
    |> Seq.map (Instance.add (Fact.make "W" [ Value.Int 1 ]))
    |> List.of_seq
  in
  List.iter
    (fun fresh ->
      List.iter
        (fun kind ->
          List.iter
            (fun base ->
              check_int
                (Printf.sprintf "%s %s" (Classes.kind_to_string kind)
                   (Instance.to_string base))
                (Array.length
                   (Enumerate.candidates kind ~base ~schema:sg ~fresh))
                (Enumerate.candidate_count kind ~base ~schema:sg ~fresh))
            bases)
        [ Classes.Plain; Classes.Distinct; Classes.Disjoint ])
    [ Enumerate.fresh_pool 2; [ Value.Int 2; Value.Int 9 ] ]

(* A base leads its orbit exactly when it is the least of its images
   under every permutation of the movable values (here all of them, or
   all but the constant 3), each permutation tried in full. *)
let test_is_leader () =
  let dom = Enumerate.value_pool 4 in
  let bases =
    List.of_seq (Enumerate.instances Graph_gen.schema ~dom ~max_facts:3)
  in
  List.iter
    (fun (fixed, orbits) ->
      let movable =
        Value.Set.diff (Value.Set.of_list dom) (Value.Set.of_list fixed)
      in
      let perms = Homomorphism.permutations_of movable in
      let least b =
        List.for_all
          (fun pi -> Instance.compare b (Homomorphism.apply pi b) <= 0)
          perms
      in
      let leaders =
        List.filter
          (fun b ->
            let l = Enumerate.is_leader ~movable b in
            check_bool (Instance.to_string b) (least b) l;
            l)
          bases
      in
      check_int "orbits" orbits (List.length leaders))
    [ ([], 44); ([ Value.Int 3 ], 141) ]

let test_pool_sizes () =
  check_int "empty pool" 0 (List.length (Enumerate.value_pool 0));
  List.iter
    (fun (what, pool) ->
      match pool (-1) with
      | _ -> Alcotest.failf "%s accepted a negative size" what
      | exception Invalid_argument msg ->
        check_bool (what ^ " names itself") true
          (String.starts_with ~prefix:("Enumerate." ^ what) msg))
    [
      ("value_pool", Enumerate.value_pool);
      ("fresh_pool", Enumerate.fresh_pool);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 3.1 separations, bounded *)

let test_tc_monotone () =
  check_bool "tc in M (bounded)" false
    (violated (Checker.check_exhaustive ~bounds:small Classes.Plain Zoo.tc))

let test_comp_tc_placement () =
  (* Q_TC ∈ Mdisjoint \ Mdistinct (Theorem 3.1(1)). *)
  check_bool "not plain-monotone" true
    (violated (Checker.check_exhaustive ~bounds:small Classes.Plain Zoo.comp_tc));
  check_bool "not distinct-monotone" true
    (violated
       (Checker.check_exhaustive ~bounds:small Classes.Distinct Zoo.comp_tc));
  check_bool "disjoint-monotone (bounded)" false
    (violated
       (Checker.check_exhaustive ~bounds:small Classes.Disjoint Zoo.comp_tc))

let test_comp_tc_distinct_bound_collapse () =
  (* One domain-distinct fact cannot create a path between old vertices:
     Q_TC ∈ M¹distinct \ M²distinct. *)
  let b1 = { small with Checker.max_ext = 1 } in
  check_bool "holds at ext size 1" false
    (violated (Checker.check_exhaustive ~bounds:b1 Classes.Distinct Zoo.comp_tc));
  let b2 = { small with Checker.max_ext = 2 } in
  check_bool "violated at ext size 2" true
    (violated (Checker.check_exhaustive ~bounds:b2 Classes.Distinct Zoo.comp_tc))

let test_clique_ladder () =
  (* Q³clique ∈ M¹distinct \ M²distinct (Theorem 3.1(3), i = 1). *)
  let q = Zoo.q_clique 3 in
  let b1 = { small with Checker.max_ext = 1 } in
  check_bool "M1distinct holds" false
    (violated (Checker.check_exhaustive ~bounds:b1 Classes.Distinct q));
  let b2 = { small with Checker.max_ext = 2 } in
  check_bool "M2distinct violated" true
    (violated (Checker.check_exhaustive ~bounds:b2 Classes.Distinct q));
  (* Q³clique ∈ M²disjoint \ M³disjoint (Theorem 3.1(5), i = 2). *)
  let d2 = { small with Checker.fresh = 3; max_ext = 2 } in
  check_bool "M2disjoint holds" false
    (violated (Checker.check_exhaustive ~bounds:d2 Classes.Disjoint q));
  let d3 = { small with Checker.fresh = 3; max_ext = 3 } in
  check_bool "M3disjoint violated" true
    (violated (Checker.check_exhaustive ~bounds:d3 Classes.Disjoint q))

let test_star_ladder () =
  (* Q²star ∈ M¹disjoint \ M²disjoint (Theorem 3.1(4), i = 1). *)
  let q = Zoo.q_star 2 in
  let d1 = { small with Checker.fresh = 3; max_ext = 1 } in
  check_bool "M1disjoint holds" false
    (violated (Checker.check_exhaustive ~bounds:d1 Classes.Disjoint q));
  let d2 = { small with Checker.fresh = 3; max_ext = 2 } in
  check_bool "M2disjoint violated" true
    (violated (Checker.check_exhaustive ~bounds:d2 Classes.Disjoint q));
  (* Q²star ∉ M¹distinct (Theorem 3.1(6)): one edge from an old centre to a
     fresh vertex grows a 1-spoke star into a 2-spoke star. *)
  let b1 = { small with Checker.max_ext = 1 } in
  check_bool "M1distinct violated" true
    (violated (Checker.check_exhaustive ~bounds:b1 Classes.Distinct q))

let test_duplicate () =
  (* Q²duplicate ∈ M¹distinct \ M²disjoint (Theorem 3.1(7), i=1, j=2). *)
  let q = Zoo.q_duplicate 2 in
  let b1 = { small with Checker.max_ext = 1 } in
  check_bool "M1distinct holds" false
    (violated (Checker.check_exhaustive ~bounds:b1 Classes.Distinct q));
  let d2 = { small with Checker.max_ext = 2 } in
  check_bool "M2disjoint violated" true
    (violated (Checker.check_exhaustive ~bounds:d2 Classes.Disjoint q))

let test_triangles_not_disjoint_monotone () =
  (* The Mdisjoint ⊊ C separator (Theorem 3.1(1), third part). *)
  let q = Zoo.triangles_unless_two_disjoint in
  let base = Graph_gen.cycle 3 in
  let out =
    Checker.check_on_bases ~fresh:3 ~max_ext:3 Classes.Disjoint q [ base ]
  in
  check_bool "violated by a fresh disjoint triangle" true (violated out)

let test_winmove_placement () =
  (* Win-move ∈ Mdisjoint \ Mdistinct (Zinn et al. / Section 4). *)
  let q = Zoo.winmove in
  check_bool "not distinct-monotone" true
    (violated
       (Checker.check_exhaustive
          ~bounds:{ small with Checker.max_base = 2; max_ext = 1 }
          Classes.Distinct q));
  check_bool "disjoint-monotone (bounded)" false
    (violated
       (Checker.check_exhaustive
          ~bounds:{ small with Checker.max_base = 2; max_ext = 2 }
          Classes.Disjoint q))

(* The strongest class that holds within [small], read off the full
   scans from the strongest class down. *)
let strongest q =
  let holds kind =
    not (violated (Checker.check_exhaustive ~bounds:small kind q))
  in
  if holds Classes.Plain then "M"
  else if holds Classes.Distinct then "Mdistinct"
  else if holds Classes.Disjoint then "Mdisjoint"
  else "C (non-monotone)"

let test_placement_summary () =
  Alcotest.(check string) "tc strongest" "M" (strongest Zoo.tc);
  Alcotest.(check string) "comp-tc strongest" "Mdisjoint" (strongest Zoo.comp_tc)

(* ------------------------------------------------------------------ *)
(* Lemma 3.2: E = Mdistinct, Hinj = M *)

let test_extensions_tc () =
  check_bool "tc preserved under extensions" false
    (violated (Relate.check_extensions_exhaustive ~bounds:small Zoo.tc))

let test_extensions_comp_tc () =
  check_bool "comp-tc not preserved under extensions" true
    (violated (Relate.check_extensions_exhaustive ~bounds:small Zoo.comp_tc))

let test_extensions_agrees_with_distinct () =
  (* E = Mdistinct: the two checkers agree on a query sample. *)
  List.iter
    (fun q ->
      let e = violated (Relate.check_extensions_exhaustive ~bounds:small q) in
      let d =
        violated (Checker.check_exhaustive ~bounds:small Classes.Distinct q)
      in
      check_bool ("agrees on " ^ q.Query.name) e d)
    [ Zoo.tc; Zoo.comp_tc; Zoo.q_clique 3; Zoo.q_star 2 ]

let tiny = { Checker.dom_size = 2; fresh = 1; max_base = 2; max_ext = 2 }

let test_hom_tc () =
  check_bool "tc preserved under injective homs" false
    (violated (Relate.check_hom_exhaustive ~bounds:tiny ~injective:true Zoo.tc));
  check_bool "tc preserved under all homs (Datalog ⊆ H)" false
    (violated (Relate.check_hom_exhaustive ~bounds:tiny ~injective:false Zoo.tc))

let test_hom_comp_tc () =
  check_bool "comp-tc not preserved under injective homs" true
    (violated
       (Relate.check_hom_exhaustive ~bounds:tiny ~injective:true Zoo.comp_tc))

let test_hom_ineq_separates () =
  (* O(x,y) :- E(x,y), x != y is in M = Hinj but not in H: a collapsing
     homomorphism merges the two endpoints. *)
  let q =
    Query.make ~name:"irreflexive-edges" ~input:Graph_gen.schema
      ~output:(Schema.of_list [ ("O", 2) ])
      (fun i ->
        Instance.fold
          (fun f acc ->
            if
              Fact.rel f = "E"
              && not (Value.equal (Fact.arg f 0) (Fact.arg f 1))
            then Instance.add (Fact.make "O" (Fact.args f)) acc
            else acc)
          i Instance.empty)
  in
  check_bool "in Hinj" false
    (violated (Relate.check_hom_exhaustive ~bounds:tiny ~injective:true q));
  check_bool "not in H" true
    (violated (Relate.check_hom_exhaustive ~bounds:tiny ~injective:false q));
  check_bool "in M" false
    (violated (Checker.check_exhaustive ~bounds:small Classes.Plain q))

(* ------------------------------------------------------------------ *)
(* Zoo internals *)

let test_has_clique () =
  check_bool "triangle" true (Zoo.has_clique (Graph_gen.cycle 3) 3);
  check_bool "path is not" false (Zoo.has_clique (Graph_gen.path 3) 3);
  check_bool "full clique 4" true (Zoo.has_clique (Graph_gen.clique 4) 4);
  check_bool "cycle 4 has no triangle" false
    (Zoo.has_clique (Graph_gen.cycle 4) 3);
  check_bool "undirected reading" true
    (Zoo.has_clique (Graph_gen.of_edges [ (1, 2); (3, 1); (2, 3) ]) 3)

let test_has_star () =
  check_bool "star 3" true (Zoo.has_star (Graph_gen.star 3) 3);
  check_bool "star 3 is not star 4" false (Zoo.has_star (Graph_gen.star 3) 4);
  check_bool "in-edges count as spokes" true
    (Zoo.has_star (Graph_gen.of_edges [ (1, 0); (2, 0); (3, 0) ]) 3);
  check_bool "self loop no spoke" false
    (Zoo.has_star (Graph_gen.of_edges [ (0, 0) ]) 1)

let test_triangles () =
  let t = Zoo.triangles (Graph_gen.cycle 3) in
  check_int "three rotations" 3 (Instance.cardinal t);
  check_bool "no triangle in path" true
    (Instance.is_empty (Zoo.triangles (Graph_gen.path 4)))

let test_winmove_query () =
  let i = Instance.of_list [ Fact.make "Move" [ Value.int 1; Value.int 2 ] ] in
  let out = Query.apply Zoo.winmove i in
  check_bool "1 wins" true
    (Instance.mem (Fact.make "Win" [ Value.int 1 ]) out);
  check_int "only 1 wins" 1 (Instance.cardinal out)

let test_winmove_draw () =
  let i = Graph_gen.game ~seed:0 ~nodes:0 ~edges:0 in
  check_bool "empty game, no winners" true
    (Instance.is_empty (Query.apply Zoo.winmove i));
  let cyc =
    Instance.of_list
      [
        Fact.make "Move" [ Value.int 1; Value.int 2 ];
        Fact.make "Move" [ Value.int 2; Value.int 1 ];
      ]
  in
  check_bool "pure cycle: draws are not wins" true
    (Instance.is_empty (Query.apply Zoo.winmove cyc))

let test_winmove_matches_engine () =
  (* The direct alternating fixpoint agrees with the Datalog well-founded
     engine on random games. *)
  let open Datalog in
  let p = Parser.parse_program Zoo.winmove_program in
  for seed = 0 to 14 do
    let g = Graph_gen.game ~seed ~nodes:6 ~edges:9 in
    let direct = Query.apply Zoo.winmove g in
    let engine =
      Instance.restrict_rels (Wellfounded.eval p g).Wellfounded.true_facts
        [ "Win" ]
    in
    check_bool (Printf.sprintf "seed %d" seed) true
      (Instance.equal direct engine)
  done

let test_tc_matches_engine () =
  let open Datalog in
  let p = Parser.parse_program Zoo.tc_program in
  for seed = 0 to 9 do
    let g = Graph_gen.erdos_renyi ~seed ~nodes:6 ~edges:10 in
    let direct = Query.apply Zoo.tc g in
    let engine = Instance.restrict_rels (Eval.seminaive p g) [ "T" ] in
    check_bool (Printf.sprintf "seed %d" seed) true
      (Instance.equal direct engine)
  done

let test_comp_tc_matches_engine () =
  let open Datalog in
  let p = Program.parse Zoo.comp_tc_program in
  for seed = 0 to 9 do
    let g = Graph_gen.erdos_renyi ~seed ~nodes:5 ~edges:7 in
    let direct = Query.apply Zoo.comp_tc g in
    let engine = Program.run p g in
    check_bool (Printf.sprintf "seed %d" seed) true
      (Instance.equal direct engine)
  done

let test_graph_gen_shapes () =
  check_int "path edges" 4 (Instance.cardinal (Graph_gen.path 4));
  check_int "cycle edges" 5 (Instance.cardinal (Graph_gen.cycle 5));
  check_int "clique edges" 12 (Instance.cardinal (Graph_gen.clique 4));
  check_int "star edges" 3 (Instance.cardinal (Graph_gen.star 3));
  let a = Graph_gen.cycle 3 and b = Graph_gen.cycle 3 in
  let u = Graph_gen.disjoint_union a b in
  check_int "disjoint union keeps all edges" 6 (Instance.cardinal u);
  check_bool "parts disjoint" true
    (Instance.is_domain_disjoint_from (Instance.diff u a) a)

(* ------------------------------------------------------------------ *)
(* Shrinking and ladders *)

let test_shrink_minimizes () =
  (* Start from a deliberately fat violating pair for comp-tc. *)
  let base = Graph_gen.of_edges [ (1, 2); (5, 6); (6, 5) ] in
  let extension = Graph_gen.of_edges [ (2, 9); (9, 1); (9, 9) ] in
  match
    Classes.check_pair Classes.Distinct Zoo.comp_tc ~base ~extension
  with
  | None -> Alcotest.fail "expected a violation to start from"
  | Some v ->
    let v' = Shrink.shrink Zoo.comp_tc v in
    check_bool "still a violation" true
      (Classes.check_pair v'.Classes.kind Zoo.comp_tc ~base:v'.Classes.base
         ~extension:v'.Classes.extension
      <> None);
    check_bool "minimal" true (Shrink.is_minimal Zoo.comp_tc v');
    check_bool "base shrank" true
      (Instance.cardinal v'.Classes.base < Instance.cardinal base);
    (* The canonical certificate: one edge, and the two-edge detour
       through the new vertex. *)
    check_int "one base fact" 1 (Instance.cardinal v'.Classes.base);
    check_int "two extension facts" 2 (Instance.cardinal v'.Classes.extension)

let test_ladder_star () =
  (* Q²star: holds at disjoint bound 1, violated from 2 on. *)
  let outcomes =
    Checker.ladder ~fresh:3
      ~bases:[ Graph_gen.star 1; Graph_gen.path 1 ]
      Classes.Disjoint ~max_i:3 (Zoo.q_star 2)
  in
  match List.map violated outcomes with
  | [ false; true; true ] -> ()
  | l ->
    Alcotest.fail
      (Printf.sprintf "unexpected ladder: %s"
         (String.concat "," (List.map string_of_bool l)))

let test_ladder_monotone_in_i () =
  (* Once violated, violated for all larger bounds (inclusion of the
     bounded classes). *)
  let outcomes =
    Checker.ladder ~bounds:small Classes.Distinct ~max_i:3 Zoo.comp_tc
  in
  let flags = List.map violated outcomes in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> ((not a) || b) && nondecreasing rest
    | _ -> true
  in
  check_bool "monotone ladder" true (nondecreasing flags)

(* ------------------------------------------------------------------ *)
(* Datalog encodings of the separating queries *)

let test_clique_program_matches_query () =
  let p = Datalog.Program.parse Zoo.q_clique3_program in
  let q = Zoo.q_clique 3 in
  for seed = 0 to 19 do
    let g = Graph_gen.erdos_renyi ~seed ~nodes:5 ~edges:7 in
    check_bool
      (Printf.sprintf "seed %d" seed)
      true
      (Instance.equal (Datalog.Program.run p g) (Query.apply q g))
  done

let test_star_program_matches_query () =
  let p = Datalog.Program.parse Zoo.q_star2_program in
  let q = Zoo.q_star 2 in
  for seed = 0 to 19 do
    let g = Graph_gen.erdos_renyi ~seed ~nodes:5 ~edges:6 in
    check_bool
      (Printf.sprintf "seed %d" seed)
      true
      (Instance.equal (Datalog.Program.run p g) (Query.apply q g))
  done;
  (* Self loops are not spokes. *)
  let g = Graph_gen.of_edges [ (0, 0); (0, 1) ] in
  check_bool "self loop" true
    (Instance.equal (Datalog.Program.run p g) (Query.apply q g))

let test_separator_programs_not_semicon () =
  (* These queries are outside Mdisjoint, so Theorem 5.3 says no
     semicon-Datalog¬ program can express them; the natural encodings are
     indeed not semi-connected and their negation is a blocking point of
     order. *)
  List.iter
    (fun src ->
      let rules =
        Datalog.Adom.augment (Datalog.Parser.parse_program src)
      in
      check_bool "stratified but not semicon" true
        (Datalog.Fragment.classify rules
        = Datalog.Fragment.Stratified);
      match
        Datalog.Points_of_order.max_severity
          (Datalog.Points_of_order.analyze rules)
      with
      | Some Datalog.Points_of_order.Blocking_negation -> ()
      | _ -> Alcotest.fail "expected a blocking point of order")
    [ Zoo.q_clique3_program; Zoo.q_star2_program ]

(* ------------------------------------------------------------------ *)
(* Games: retrograde analysis vs win-move *)

let move a b = Fact.make "Move" [ Value.int a; Value.int b ]

let test_games_statuses () =
  (* 1 -> 2 -> 3 (dead end), 4 <-> 5, 6 -> 4. *)
  let g = Instance.of_list [ move 1 2; move 2 3; move 4 5; move 5 4; move 6 4 ] in
  let s = Games.solve g in
  let expect x st =
    check_bool
      (Printf.sprintf "%d is %s" x (Games.status_to_string st))
      true
      (Value.Map.find (Value.int x) s = st)
  in
  expect 3 Games.Lost;
  expect 2 Games.Won;
  expect 1 Games.Lost;
  expect 4 Games.Drawn;
  expect 5 Games.Drawn;
  expect 6 Games.Drawn

let test_games_match_winmove () =
  for seed = 0 to 19 do
    let g = Graph_gen.game ~seed ~nodes:7 ~edges:11 in
    check_bool
      (Printf.sprintf "winners agree (seed %d)" seed)
      true
      (Instance.equal
         (Query.apply Games.winners_query g)
         (Query.apply Zoo.winmove g));
    check_bool
      (Printf.sprintf "wf agreement (seed %d)" seed)
      true
      (Games.agrees_with_wellfounded g)
  done

let test_games_partition () =
  let g = Graph_gen.game ~seed:3 ~nodes:6 ~edges:9 in
  let won = Games.positions Games.Won g in
  let lost = Games.positions Games.Lost g in
  let drawn = Games.positions Games.Drawn g in
  check_bool "disjoint" true
    (Value.Set.is_empty (Value.Set.inter won lost)
    && Value.Set.is_empty (Value.Set.inter won drawn)
    && Value.Set.is_empty (Value.Set.inter lost drawn));
  check_bool "cover" true
    (Value.Set.equal
       (Value.Set.union won (Value.Set.union lost drawn))
       (Instance.adom g))

let test_games_losers_query () =
  let g = Instance.of_list [ move 1 2 ] in
  let out = Query.apply Games.losers_query g in
  check_bool "2 lost" true
    (Instance.mem (Fact.make "Lose" [ Value.int 2 ]) out);
  check_bool "1 not lost" false
    (Instance.mem (Fact.make "Lose" [ Value.int 1 ]) out)

(* ------------------------------------------------------------------ *)
(* Fast-route and parallel-scan determinism: verdicts, pair tallies and
   (shrunken) certificates must be byte-identical between a query and
   the same query with its fast routes stripped (the reference, which
   evaluates per probe), and independently of the worker count. *)

let violation_equal (a : Classes.violation) (b : Classes.violation) =
  a.Classes.kind = b.Classes.kind
  && a.Classes.bound = b.Classes.bound
  && Instance.equal a.Classes.base b.Classes.base
  && Instance.equal a.Classes.extension b.Classes.extension
  && Fact.equal a.Classes.missing b.Classes.missing

let outcome_equal a b =
  match (a, b) with
  | Checker.No_violation { pairs = p }, Checker.No_violation { pairs = p' } ->
    p = p'
  | Checker.Violated v, Checker.Violated v' -> violation_equal v v'
  | _ -> false

let eval_only (q : Query.t) = { q with Query.witness = None; maintain = None }

(* [run ~jobs q] for the query as given and for its eval-only
   reference, at jobs 1, 2 and 4, keyed by (route, jobs). *)
let scan_configs run q =
  List.concat_map
    (fun (route, q) ->
      List.map (fun jobs -> ((route, jobs), run ~jobs q)) [ 1; 2; 4 ])
    [ ("query", q); ("eval-only", eval_only q) ]

let check_scan_invariant name run q =
  let results = scan_configs run q in
  let reference = List.assoc ("eval-only", 1) results in
  List.iter
    (fun ((route, jobs), o) ->
      check_bool
        (Printf.sprintf "%s: %s jobs=%d" name route jobs)
        true
        (outcome_equal reference o);
      match (reference, o) with
      | Checker.Violated v, Checker.Violated v' ->
        check_bool
          (Printf.sprintf "%s: shrunken certificate %s jobs=%d" name route
             jobs)
          true
          (violation_equal (Shrink.shrink q v) (Shrink.shrink q v'))
      | _ -> ())
    results

let test_scan_cache_jobs_violating () =
  check_scan_invariant "comp-tc distinct"
    (fun ~jobs q ->
      Checker.check_exhaustive ~bounds:small ~jobs Classes.Distinct q)
    Zoo.comp_tc

let test_scan_cache_jobs_clean () =
  check_scan_invariant "tc plain"
    (fun ~jobs q ->
      Checker.check_exhaustive ~bounds:small ~jobs Classes.Plain q)
    Zoo.tc

(* ------------------------------------------------------------------ *)
(* Incremental-route determinism: a maintain-backed query
   ({!Datalog.Program.query} installs the {!Datalog.Ivm} route; no
   witness) must give byte-identical verdicts, certificates, and scan
   rows to its eval-only reference, across jobs — only
   [monotone.ivm_hits] may differ, and on the query it must prove the
   route actually fired. *)

(* The scan's verdict rows — probes, pairs, cache hits, violations,
   certificate sizes — must not move with the route; [monotone.ivm_hits]
   is the route's own meter and is pinned separately. The engine's
   [eval.*] work counters legitimately change with the route (that is
   its point); they must still be identical across [jobs] for a fixed
   query. *)
let monotone_core_rows c =
  Observe.Metrics.render_stable c
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         String.starts_with ~prefix:"monotone." l
         && not (String.starts_with ~prefix:"monotone.ivm_hits" l))
  |> String.concat "\n"

let root_count name =
  match
    List.find_opt
      (fun r -> r.Observe.Metrics.name = name)
      (Observe.Metrics.snapshot Observe.Metrics.root)
  with
  | Some r -> r.Observe.Metrics.count
  | None -> 0

(* [full_model] says whether the probes need {!Datalog.Ivm.lost}'s
   saturating fallback: a positive program must answer every probe
   without one (no [eval.ivm_applies] at all), a violation needs at
   least one. *)
let check_ivm_scan_invariant ~full_model name kind q =
  check_bool (name ^ ": route is ivm") true (Query.route q = Query.Ivm);
  check_bool (name ^ ": stripped reference routes to eval") true
    (Query.route (eval_only q) = Query.Eval);
  let run ~jobs q =
    Observe.Metrics.reset Observe.Metrics.root;
    let o = Checker.check_exhaustive ~bounds:small ~jobs kind q in
    ( o,
      Observe.Metrics.render_stable Observe.Metrics.root,
      monotone_core_rows Observe.Metrics.root,
      root_count "monotone.ivm_hits",
      root_count "eval.ivm_applies" )
  in
  let results = scan_configs run q in
  let ref_o, _, ref_core, _, _ = List.assoc ("eval-only", 1) results in
  let _, _, _, hits, applies = List.assoc ("query", 1) results in
  check_bool (name ^ ": incremental route fired") true (hits > 0);
  check_bool
    (Printf.sprintf "%s: full-model runs (%d) %s" name applies
       (if full_model then "> 0" else "= 0"))
    full_model (applies > 0);
  List.iter
    (fun ((route, jobs), (o, rows, core, hits', _)) ->
      let _, rows1, _, _, _ = List.assoc (route, 1) results in
      check_bool
        (Printf.sprintf "%s: verdict %s jobs=%d" name route jobs)
        true (outcome_equal ref_o o);
      check_bool
        (Printf.sprintf "%s: stable rows %s jobs=%d = jobs=1" name route jobs)
        true (String.equal rows1 rows);
      check_bool
        (Printf.sprintf "%s: verdict rows %s jobs=%d" name route jobs)
        true (String.equal ref_core core);
      check_int
        (Printf.sprintf "%s: ivm hits %s jobs=%d" name route jobs)
        (if route = "query" then hits else 0)
        hits')
    results

let test_ivm_scan_violating () =
  check_ivm_scan_invariant ~full_model:true "comp-tc-prog distinct"
    Classes.Distinct
    (Datalog.Program.query ~name:"comp-tc-prog"
       (Datalog.Program.parse Zoo.comp_tc_program))

let test_ivm_scan_clean () =
  check_ivm_scan_invariant ~full_model:false "tc-prog plain" Classes.Plain
    (Datalog.Program.query ~name:"tc-prog"
       (Datalog.Program.parse ~outputs:[ "T" ] Zoo.tc_program))

(* ------------------------------------------------------------------ *)
(* wILOG zoo (Section 5.2 / Theorem 5.4) *)

let test_wilog_tagged_edges () =
  let i = Graph_gen.of_edges [ (1, 2); (3, 4) ] in
  let out = Query.apply Wilog_zoo.tagged_edges_query i in
  check_int "identity modulo rel name" 2 (Instance.cardinal out);
  check_bool "no invented values leak" true
    (Instance.for_all (fun f -> not (Fact.is_invented f)) out)

let test_wilog_sinks_of_sources () =
  (* 1 -> 2: HasOut = {1}; sinks (no out-edge) = {2}. *)
  let i = Graph_gen.of_edges [ (1, 2) ] in
  let out = Query.apply Wilog_zoo.sinks_of_sources_query i in
  check_bool "O(1,2)" true
    (Instance.equal out
       (Instance.of_list [ Fact.make "O" [ Value.int 1; Value.int 2 ] ]))

let test_wilog_fragments () =
  let open Datalog in
  let tagged = Parser.parse_program Wilog_zoo.tagged_edges in
  let sinks = Adom.augment (Parser.parse_program Wilog_zoo.sinks_of_sources) in
  check_bool "tagged is SP-wILOG" true (Ilog.is_sp_wilog tagged);
  check_bool "sinks is not SP-wILOG" false (Ilog.is_sp_wilog sinks);
  check_bool "sinks is semicon-wILOG" true (Ilog.is_semi_connected_wilog sinks);
  check_bool "tagged weakly safe" true
    (Ilog.is_weakly_safe ~outputs:[ "O" ] tagged);
  check_bool "leak not weakly safe" false
    (Ilog.is_weakly_safe ~outputs:[ "O" ]
       (Parser.parse_program Wilog_zoo.unsafe_leak))

let test_wilog_query_rejections () =
  let open Datalog in
  check_bool "unsafe leak rejected" true
    (Result.is_error
       (Ilog.query ~name:"leak" ~outputs:[ "O" ]
          (Parser.parse_program Wilog_zoo.unsafe_leak)));
  check_bool "divergent counter has no O" true
    (Result.is_error
       (Ilog.query ~name:"ctr" ~outputs:[ "O" ]
          (Parser.parse_program Wilog_zoo.divergent_counter)))

let test_wilog_semicon_in_mdisjoint () =
  (* Theorem 5.4 direction: semicon-wILOG¬ ⊆ Mdisjoint, bounded check. *)
  let q = Wilog_zoo.sinks_of_sources_query in
  check_bool "not in Mdistinct" true
    (violated
       (Checker.check_exhaustive ~bounds:{ small with Checker.max_ext = 1 }
          Classes.Distinct q));
  check_bool "in Mdisjoint (bounded)" false
    (violated (Checker.check_exhaustive ~bounds:small Classes.Disjoint q))

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 0 10 in
    let* edges = list_size (return n) (pair (int_range 0 5) (int_range 0 5)) in
    return (Graph_gen.of_edges edges))

let prop_induced_iff_distinct =
  QCheck2.Test.make ~name:"E=Mdistinct translation (Lemma 3.2)" ~count:300
    (QCheck2.Gen.pair gen_graph gen_graph) (fun (whole, sub) ->
      let part = Instance.inter whole sub in
      Relate.induced_iff_distinct ~whole ~part)

let prop_disjoint_union_preserves_winmove =
  QCheck2.Test.make ~name:"win-move disjoint-monotone on random pairs"
    ~count:100 (QCheck2.Gen.pair gen_graph gen_graph) (fun (a, b) ->
      let rename i =
        Instance.fold
          (fun f acc -> Instance.add (Fact.make "Move" (Fact.args f)) acc)
          i Instance.empty
      in
      let shift i =
        Instance.map_values
          (function Value.Int x -> Value.Int (x + 1000) | v -> v)
          i
      in
      let a = rename a and b = shift (rename b) in
      let q = Zoo.winmove in
      Instance.subset (Query.apply q a) (Query.apply q (Instance.union a b)))

let prop_tc_monotone_random =
  QCheck2.Test.make ~name:"tc monotone on random pairs" ~count:200
    (QCheck2.Gen.pair gen_graph gen_graph) (fun (i, j) ->
      Instance.subset (Query.apply Zoo.tc i)
        (Query.apply Zoo.tc (Instance.union i j)))

let prop_comp_tc_disjoint_monotone_random =
  QCheck2.Test.make ~name:"comp-tc disjoint-monotone on random pairs"
    ~count:200 gen_graph (fun i ->
      let j =
        Instance.map_values
          (function Value.Int x -> Value.Int (x + 500) | v -> v)
          (Graph_gen.cycle 3)
      in
      Instance.subset (Query.apply Zoo.comp_tc i)
        (Query.apply Zoo.comp_tc (Instance.union i j)))

let prop_shrink_locally_minimal =
  QCheck2.Test.make ~name:"every Shrink certificate is locally minimal"
    ~count:150
    (QCheck2.Gen.pair gen_graph gen_graph)
    (fun (base, ext) ->
      (* A domain-disjoint copy of [ext] is admissible for every kind. *)
      let shifted =
        Instance.map_values
          (function Value.Int x -> Value.Int (x + 100) | v -> v)
          ext
      in
      let minimal_after_shrink kind extension =
        match Classes.check_pair kind Zoo.comp_tc ~base ~extension with
        | None -> true (* vacuous: not a violation to begin with *)
        | Some v ->
          let v' = Shrink.shrink Zoo.comp_tc v in
          Shrink.is_minimal Zoo.comp_tc v'
          && Classes.check_pair v'.Classes.kind Zoo.comp_tc
               ~base:v'.Classes.base ~extension:v'.Classes.extension
             <> None
      in
      minimal_after_shrink Classes.Plain (Instance.diff ext base)
      && minimal_after_shrink Classes.Distinct shifted
      && minimal_after_shrink Classes.Disjoint shifted)

(* The staged-witness contract (see {!Relational.Query.stage}): for any
   base, extension and expected set, the witness fast path must return
   exactly the fact the evaluating route returns — the least fact of
   [expected] missing from [Q(base ∪ ext)]. Exercised for every zoo
   query that installs a witness, including expected sets taken from an
   unrelated graph (values that resolve to no vertex). *)
let prop_witness_contract =
  let rename_moves i =
    Instance.fold
      (fun f acc -> Instance.add (Fact.make "Move" (Fact.args f)) acc)
      i Instance.empty
  in
  let cases =
    [
      (Zoo.tc, Fun.id);
      (Zoo.comp_tc, Fun.id);
      (Zoo.triangles_unless_two_disjoint, Fun.id);
      (Zoo.winmove, rename_moves);
    ]
  in
  QCheck2.Test.make ~name:"staged witnesses match the evaluator route"
    ~count:200
    (QCheck2.Gen.triple gen_graph gen_graph gen_graph)
    (fun (b, e, x) ->
      List.for_all
        (fun (q, conv) ->
          let base = conv b and ext = conv e in
          let agree expected =
            let via_witness =
              Query.stage q ~base ~expected (Query.delta_of_instance ext)
            in
            let via_eval =
              Instance.first_missing expected
                (Query.apply q (Instance.union base ext))
            in
            match (via_witness, via_eval) with
            | None, None -> true
            | Some f, Some g -> Fact.equal f g
            | _ -> false
          in
          agree (Query.apply q base) && agree (Query.apply q (conv x)))
        cases)

(* Random programs ({!Random_program}), at most four rules. [with_neg]
   adds negated edb atoms (semi-positive). *)
let gen_program ~with_neg =
  Random_program.program
    ~negatable:(if with_neg then [ "A"; "B" ] else [])
    ~rules:(1, 4) ()

let program_query rules =
  Datalog.Program.query ~name:"random" (Random_program.make rules)

(* Each program is scanned exhaustively, on every pair within [small]
   with bases of at most two facts (three take seconds per property). *)
let prop_positive_programs_monotone =
  QCheck2.Test.make ~name:"Datalog(!=) subset of M (random programs)"
    ~count:80 (gen_program ~with_neg:false) (fun rules ->
      match program_query rules with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        not
          (violated
             (Checker.check_exhaustive
                ~bounds:{ small with Checker.max_base = 2 }
                Classes.Plain q)))

let prop_sp_programs_distinct_monotone =
  QCheck2.Test.make ~name:"SP-Datalog subset of Mdistinct (random programs)"
    ~count:80 (gen_program ~with_neg:true) (fun rules ->
      match program_query rules with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        Datalog.Fragment.is_semi_positive rules
        && not
             (violated
                (Checker.check_exhaustive
                   ~bounds:{ small with Checker.max_base = 2 }
                   Classes.Distinct q)))

(* ------------------------------------------------------------------ *)
(* The scan kernel against its order oracle and the reference scan
   ({!Refscan}): the kernel hands over exactly the nonempty subsets of
   [subsets_up_to], in its order, and stops at the first [true]; the
   checkers agree with the per-pair [Seq] scan on the verdict, the
   certificate, [monotone.probes] and [pairs_scanned] at every job
   count. *)

let binomial_sum n k =
  let rec choose n s = if s = 0 then 1 else choose (n - 1) (s - 1) * n / s in
  List.init (max 0 (min k n)) (fun s -> choose n (s + 1))
  |> List.fold_left ( + ) 0

let prop_kernel_order =
  QCheck2.Test.make ~name:"kernel = subsets_up_to, stops at the first true"
    ~count:300
    QCheck2.Gen.(
      let* items = list_size (int_range 0 12) (int_range 0 9) in
      let* k = int_range (-1) 4 in
      let* stop = int_range 0 (binomial_sum (List.length items) k + 1) in
      return (items, k, stop))
    (fun (items, k, stop) ->
      let expected =
        Enumerate.subsets_up_to items k
        |> Seq.filter (fun l -> l <> [])
        |> Seq.take (stop + 1) |> List.of_seq
      in
      let seen = ref [] in
      let count =
        Enumerate.subsets_until (Array.of_list items) k (fun l ->
            seen := l :: !seen;
            List.length !seen > stop)
      in
      List.rev !seen = expected
      && count = List.length expected
      && Enumerate.subsets_count (List.length items) k
         = binomial_sum (List.length items) k)

(* [run ~jobs] against the reference's [(outcome, probes)] at jobs 1, 2
   and 4: same outcome (certificate included), same probes, and
   [pairs_scanned] = the pair count of a clean scan (0 when violated). *)
let check_against_reference name (ref_o, ref_probes) run =
  let ref_pairs =
    match ref_o with Checker.No_violation { pairs } -> pairs | _ -> 0
  in
  List.iter
    (fun jobs ->
      Observe.Metrics.reset Observe.Metrics.root;
      let o = run ~jobs in
      let at what = Printf.sprintf "%s: %s jobs=%d" name what jobs in
      check_bool (at "outcome") true (outcome_equal ref_o o);
      check_int (at "monotone.probes") ref_probes
        (root_count "monotone.probes");
      check_int (at "monotone.pairs_scanned") ref_pairs
        (root_count "monotone.pairs_scanned"))
    [ 1; 2; 4 ]

let kinds = [ Classes.Plain; Classes.Distinct; Classes.Disjoint ]

let wall_zoo =
  [
    ("tc", Zoo.tc);
    ("comp-tc", Zoo.comp_tc);
    ("q-clique-3", Zoo.q_clique 3);
    ("q-star-2", Zoo.q_star 2);
    ("q-duplicate-2", Zoo.q_duplicate 2);
    ("triangles-unless-2-disjoint", Zoo.triangles_unless_two_disjoint);
    ("win-move", Zoo.winmove);
    ("win-move-doubled", Zoo.winmove_doubled);
  ]

let test_kernel_wall_zoo () =
  List.iter
    (fun (name, q) ->
      List.iter
        (fun kind ->
          let name = name ^ " " ^ Classes.kind_to_string kind in
          check_against_reference name
            (Refscan.check_exhaustive ~bounds:small kind q)
            (fun ~jobs -> Checker.check_exhaustive ~bounds:small ~jobs kind q))
        kinds)
    wall_zoo

let test_kernel_wall_bases () =
  let bases =
    [
      Instance.empty;
      Graph_gen.of_edges [ (1, 2) ];
      Graph_gen.path 3;
      Graph_gen.cycle 3;
      Graph_gen.of_edges [ (1, 2); (2, 1); (3, 3) ];
    ]
  in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun kind ->
          let name = name ^ " on bases " ^ Classes.kind_to_string kind in
          check_against_reference name
            (Refscan.check_on_bases ~fresh:3 ~max_ext:3 kind q bases)
            (fun ~jobs ->
              Checker.check_on_bases ~fresh:3 ~max_ext:3 ~jobs kind q bases))
        kinds)
    [ ("tc", Zoo.tc); ("comp-tc", Zoo.comp_tc); ("q-clique-3", Zoo.q_clique 3) ]

(* Random semi-positive and stratified programs ({!Random_program}) over
   binary A and B, so the incremental route answers the probes; the
   bounds stay small because two binary relations widen the scan. *)
let test_kernel_wall_programs () =
  let bounds = { Checker.dom_size = 2; fresh = 1; max_base = 2; max_ext = 2 } in
  let rules =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 28 |]) ~n:24
      (Random_program.program ~negatable:[ "A"; "B"; "P"; "Q" ]
         ~rules:(1, 4) ())
  in
  let queries =
    List.filter_map
      (fun r ->
        match program_query r with
        | q -> Some q
        | exception Invalid_argument _ -> None)
      rules
  in
  check_bool "enough stratified draws" true (List.length queries >= 8);
  List.iteri
    (fun i q ->
      List.iter
        (fun kind ->
          let name =
            Printf.sprintf "program %d %s" i (Classes.kind_to_string kind)
          in
          check_against_reference name
            (Refscan.check_exhaustive ~bounds kind q)
            (fun ~jobs -> Checker.check_exhaustive ~bounds ~jobs kind q))
        kinds)
    queries

(* One base per orbit ({!Enumerate.is_leader}) against the reference,
   which probes every base. At dom 4 most bases are not their orbit's
   leader, so the counted groups must add up to the reference's probes
   and the leaders alone must reach its first violation. *)
let e1_zoo =
  [
    ("tc", Zoo.tc);
    ("comp-tc", Zoo.comp_tc);
    ("win-move", Zoo.winmove);
    ("triangles-unless-2-disjoint", Zoo.triangles_unless_two_disjoint);
  ]

let test_orbit_wall_zoo () =
  let bounds = { Checker.dom_size = 4; fresh = 2; max_base = 3; max_ext = 2 } in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun kind ->
          let name = name ^ " dom 4 " ^ Classes.kind_to_string kind in
          check_against_reference name
            (Refscan.check_exhaustive ~bounds kind q)
            (fun ~jobs -> Checker.check_exhaustive ~bounds ~jobs kind q))
        kinds)
    e1_zoo

(* Programs with constants: 100 draws whose inequalities have constant
   sides ({!Random_program}'s [~ineqs]) and 100 whose atoms have
   constant arguments ([~consts]). Their queries are generic only under
   the permutations that fix those constants, so a group that also
   moved them would skip bases that lead their true orbits. Only draws
   with negation and a constant in the pool are kept: a positive
   program never violates, and a constant outside the pool fixes
   nothing the scan permutes. *)
let test_orbit_wall_constants () =
  let bounds = { Checker.dom_size = 3; fresh = 1; max_base = 2; max_ext = 1 } in
  let pool = Value.Set.of_list (Enumerate.value_pool bounds.dom_size) in
  let draws gen =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 32 |]) ~n:100 gen
  in
  let negatable = [ "A"; "B"; "P"; "Q" ] in
  let rules =
    draws (Random_program.program ~ineqs:(1, 2) ~negatable ~rules:(1, 4) ())
    @ draws (Random_program.program ~consts:true ~negatable ~rules:(1, 4) ())
  in
  let queries =
    List.filter_map
      (fun rules ->
        match program_query rules with
        | q
          when List.exists (fun (r : Datalog.Ast.rule) -> r.neg <> []) rules
               && List.exists
                    (fun c -> Value.Set.mem c pool)
                    q.Query.constants ->
          Some q
        | _ -> None
        | exception Invalid_argument _ -> None)
      rules
  in
  let cases =
    List.concat_map
      (fun q ->
        List.map
          (fun kind -> (q, kind, Refscan.check_exhaustive ~bounds kind q))
          kinds)
      queries
  in
  let violating =
    List.filter (fun (_, _, (o, _)) -> Checker.is_violation o) cases
  in
  check_bool "enough draws with negation and a constant in the pool" true
    (List.length queries >= 40);
  check_bool "some verdicts violated" true (List.length violating >= 8);
  List.iteri
    (fun i (q, kind, reference) ->
      let name =
        Printf.sprintf "constant program %d %s" (i / 3)
          (Classes.kind_to_string kind)
      in
      check_against_reference name reference (fun ~jobs ->
          Checker.check_exhaustive ~bounds ~jobs kind q))
    cases

(* The named case: only its constant 3 keeps {E(1,3)} the leader of its
   orbit. A group that moved 3 would map it to {E(1,2)}, skip it, and
   report a later pair. *)
let test_orbit_constant_case () =
  let q =
    Datalog.Program.query ~name:"not-E33"
      (Datalog.Program.parse "O(x,y) :- E(x,y), not E(3,3).")
  in
  check_bool "constants = [3]" true (q.Query.constants = [ Value.Int 3 ]);
  let bounds = { Checker.default_bounds with Checker.dom_size = 3 } in
  check_against_reference "not-E33 plain"
    (Refscan.check_exhaustive ~bounds Classes.Plain q)
    (fun ~jobs -> Checker.check_exhaustive ~bounds ~jobs Classes.Plain q);
  match Checker.check_exhaustive ~bounds Classes.Plain q with
  | Checker.Violated v ->
    check_bool "I = {E(1,3)}" true
      (Instance.equal v.Classes.base (Graph_gen.of_edges [ (1, 3) ]));
    check_bool "J = {E(3,3)}" true
      (Instance.equal v.Classes.extension (Graph_gen.of_edges [ (3, 3) ]))
  | Checker.No_violation _ -> Alcotest.fail "not-E33: expected a violation"

(* A random instance over [schema]: up to [max_facts] facts, each of a
   random relation with arguments drawn from [dom]. *)
let random_instance st schema ~dom ~max_facts =
  let dom = Array.of_list dom in
  let pick () = dom.(Random.State.int st (Array.length dom)) in
  let n = Random.State.int st (max_facts + 1) in
  let rels = Array.of_list (Schema.relations schema) in
  if Array.length rels = 0 then Instance.empty
  else
    List.init n (fun _ ->
        let name, ar = rels.(Random.State.int st (Array.length rels)) in
        Fact.make name (List.init ar (fun _ -> pick ())))
    |> Instance.of_list

(* The premise of the orbit reduction: every zoo query the paper-claim
   tables E1, E2 and E21 or the check benchmarks scan is generic with no
   constants, on random instances of its schema. *)
let test_scanned_queries_generic () =
  let programs =
    [
      ("tc-prog", Datalog.Program.parse ~outputs:[ "T" ] Zoo.tc_program);
      ("comp-tc-prog", Datalog.Program.parse Zoo.comp_tc_program);
      ("p1-prog", Datalog.Program.parse Zoo.example_51_p1);
    ]
  in
  let queries =
    e1_zoo
    @ [
        ("q-star-2", Zoo.q_star 2);
        ("q-clique-3", Zoo.q_clique 3);
        ("q-duplicate-2", Zoo.q_duplicate 2);
      ]
    @ List.map (fun (name, p) -> (name, Datalog.Program.query ~name p)) programs
  in
  let st = Random.State.make [| 32 |] in
  List.iter
    (fun (name, q) ->
      check_bool (name ^ ": no constants") true (q.Query.constants = []);
      for _ = 1 to 20 do
        let i =
          random_instance st q.Query.input ~dom:(Enumerate.value_pool 5)
            ~max_facts:8
        in
        check_bool
          (Printf.sprintf "%s generic on %s" name (Instance.to_string i))
          true (Query.check_generic q i)
      done)
    queries

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_positive_programs_monotone;
      prop_sp_programs_distinct_monotone;
      prop_induced_iff_distinct;
      prop_disjoint_union_preserves_winmove;
      prop_tc_monotone_random;
      prop_comp_tc_disjoint_monotone_random;
      prop_shrink_locally_minimal;
      prop_witness_contract;
    ]

let () =
  Alcotest.run "monotone"
    [
      ( "classes",
        [
          Alcotest.test_case "weaker" `Quick test_kind_weaker;
          Alcotest.test_case "admissible" `Quick test_admissible;
          Alcotest.test_case "check_pair" `Quick test_check_pair;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "subset count" `Quick test_subsets_count;
          Alcotest.test_case "subset order" `Quick test_subsets_order;
          Alcotest.test_case "instances" `Quick test_instances_enumeration;
          Alcotest.test_case "extensions admissible" `Quick
            test_extensions_admissible;
          Alcotest.test_case "pool sizes" `Quick test_pool_sizes;
          Alcotest.test_case "candidate count" `Quick test_candidate_count;
          Alcotest.test_case "orbit leaders" `Quick test_is_leader;
        ] );
      ( "theorem-3.1",
        [
          Alcotest.test_case "tc in M" `Slow test_tc_monotone;
          Alcotest.test_case "comp-tc placement" `Slow test_comp_tc_placement;
          Alcotest.test_case "comp-tc bounded ladder" `Slow
            test_comp_tc_distinct_bound_collapse;
          Alcotest.test_case "clique ladder" `Slow test_clique_ladder;
          Alcotest.test_case "star ladder" `Slow test_star_ladder;
          Alcotest.test_case "duplicate" `Slow test_duplicate;
          Alcotest.test_case "triangles separator" `Quick
            test_triangles_not_disjoint_monotone;
          Alcotest.test_case "winmove placement" `Slow test_winmove_placement;
          Alcotest.test_case "placement summary" `Slow test_placement_summary;
        ] );
      ( "lemma-3.2",
        [
          Alcotest.test_case "tc under extensions" `Slow test_extensions_tc;
          Alcotest.test_case "comp-tc under extensions" `Slow
            test_extensions_comp_tc;
          Alcotest.test_case "E = Mdistinct agreement" `Slow
            test_extensions_agrees_with_distinct;
          Alcotest.test_case "tc under homs" `Slow test_hom_tc;
          Alcotest.test_case "comp-tc under inj homs" `Slow test_hom_comp_tc;
          Alcotest.test_case "ineq separates H from Hinj" `Slow
            test_hom_ineq_separates;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "has_clique" `Quick test_has_clique;
          Alcotest.test_case "has_star" `Quick test_has_star;
          Alcotest.test_case "triangles" `Quick test_triangles;
          Alcotest.test_case "winmove basic" `Quick test_winmove_query;
          Alcotest.test_case "winmove draws" `Quick test_winmove_draw;
          Alcotest.test_case "winmove vs engine" `Quick
            test_winmove_matches_engine;
          Alcotest.test_case "tc vs engine" `Quick test_tc_matches_engine;
          Alcotest.test_case "comp-tc vs engine" `Quick
            test_comp_tc_matches_engine;
          Alcotest.test_case "generators" `Quick test_graph_gen_shapes;
        ] );
      ( "cache-jobs",
        [
          Alcotest.test_case "exhaustive violating scan" `Slow
            test_scan_cache_jobs_violating;
          Alcotest.test_case "exhaustive clean scan" `Slow
            test_scan_cache_jobs_clean;
        ] );
      ( "ivm-route",
        [
          Alcotest.test_case "violating scan" `Slow test_ivm_scan_violating;
          Alcotest.test_case "clean scan" `Slow test_ivm_scan_clean;
        ] );
      ( "scan-kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_order;
          Alcotest.test_case "zoo against the reference" `Slow
            test_kernel_wall_zoo;
          Alcotest.test_case "bases against the reference" `Slow
            test_kernel_wall_bases;
          Alcotest.test_case "programs against the reference" `Slow
            test_kernel_wall_programs;
          Alcotest.test_case "orbits: E1 zoo at dom 4" `Slow
            test_orbit_wall_zoo;
          Alcotest.test_case "orbits: programs with constants" `Slow
            test_orbit_wall_constants;
          Alcotest.test_case "orbits: not E(3,3)" `Quick
            test_orbit_constant_case;
          Alcotest.test_case "orbits: scanned queries are generic" `Quick
            test_scanned_queries_generic;
        ] );
      ( "shrink-ladder",
        [
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "star ladder" `Quick test_ladder_star;
          Alcotest.test_case "ladder monotone" `Slow test_ladder_monotone_in_i;
        ] );
      ( "datalog-encodings",
        [
          Alcotest.test_case "clique program" `Quick
            test_clique_program_matches_query;
          Alcotest.test_case "star program" `Quick
            test_star_program_matches_query;
          Alcotest.test_case "not semicon" `Quick
            test_separator_programs_not_semicon;
        ] );
      ( "games",
        [
          Alcotest.test_case "statuses" `Quick test_games_statuses;
          Alcotest.test_case "matches win-move" `Quick test_games_match_winmove;
          Alcotest.test_case "partition" `Quick test_games_partition;
          Alcotest.test_case "losers" `Quick test_games_losers_query;
        ] );
      ( "wilog",
        [
          Alcotest.test_case "tagged edges" `Quick test_wilog_tagged_edges;
          Alcotest.test_case "sinks of sources" `Quick
            test_wilog_sinks_of_sources;
          Alcotest.test_case "fragments" `Quick test_wilog_fragments;
          Alcotest.test_case "rejections" `Quick test_wilog_query_rejections;
          Alcotest.test_case "semicon in Mdisjoint" `Slow
            test_wilog_semicon_in_mdisjoint;
        ] );
      ("properties", qcheck_cases);
    ]
