(* Benchmark harness: regenerates Figure 2 and every theorem-level claim
   of the paper as a table (experiments E1-E22 of EXPERIMENTS.md, plus
   the E25/E26 extensions). No table prints a wall clock, so stdout is
   deterministic: bench/quick.expected pins the --quick output.

   Run with: dune exec bench/main.exe -- [--quick] [--jobs N] [--json FILE]
   --quick shrinks the slowest experiments; --jobs N (N >= 1, default: all
   cores) sizes the Domain pool of E25's sweeps; --json FILE additionally
   writes a calm-bench/v1 trajectory document: per experiment, its
   wall-clock and its stable telemetry counters (see lib/observe). Any
   other argument prints a usage line and exits 2. Timing lives in
   bench/perf. *)

open Relational
open Monotone
open Queries
open Calm_core

let usage = "usage: main.exe [--quick] [--jobs N] [--json FILE]"

let quick, jobs, json_out =
  let bad what =
    Printf.eprintf "bench: %s; %s\n" what usage;
    exit 2
  in
  let rec parse quick jobs json = function
    | [] -> (quick, jobs, json)
    | "--quick" :: rest -> parse true jobs json rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> parse quick n json rest
      | _ -> bad (Printf.sprintf "--jobs takes an integer >= 1, not %S" n))
    | "--json" :: file :: rest when not (String.starts_with ~prefix:"-" file)
      ->
      parse quick jobs (Some file) rest
    | (("--jobs" | "--json") as flag) :: _ -> bad (flag ^ " needs a value")
    | arg :: _ -> bad (Printf.sprintf "unexpected argument %S" arg)
  in
  parse false
    (Parallel.Pool.default_jobs ())
    None
    (List.tl (Array.to_list Sys.argv))

(* --json trajectory: per experiment, wall-clock plus the stable metric
   rows the run recorded into the root collector (reset per experiment,
   so each entry is self-contained). *)
let recorded : (string * float * Observe.Metrics.row list) list ref = ref []

let experiment id f =
  Observe.Metrics.reset Observe.Metrics.root;
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  recorded :=
    (id, wall, Observe.Metrics.snapshot ~stable_only:true Observe.Metrics.root)
    :: !recorded;
  print_newline ()

let metrics_json rows =
  let open Observe in
  Json.Obj
    (List.map
       (fun (r : Metrics.row) ->
         let key =
           match r.labels with
           | [] -> r.name
           | ls ->
             r.name ^ "{"
             ^ String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
             ^ "}"
         in
         let value =
           match r.kind with
           | Metrics.Counter -> Json.Int r.count
           | Metrics.Gauge -> Json.Float r.last
           | Metrics.Histogram | Metrics.Timing -> Json.Float r.sum
         in
         (key, value))
       rows)

let emit_json file =
  let open Observe in
  let experiments = List.rev !recorded in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "calm-bench/v1");
        ("quick", Json.Bool quick);
        ("jobs", Json.Int jobs);
        ( "experiments",
          Json.List
            (List.map
               (fun (id, wall, rows) ->
                 Json.Obj
                   [
                     ("id", Json.String id);
                     ("wall_s", Json.Float wall);
                     ("metrics", metrics_json rows);
                   ])
               experiments) );
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string_pretty doc ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n" file

let violated = Checker.is_violation

let verdict_cell outcome ~expect_violation =
  let got = violated outcome in
  let marker = if got = expect_violation then "" else "  <<< UNEXPECTED" in
  (if got then "violated" else "holds") ^ marker

(* ================================================================== *)
(* E1 — Figure 1: the monotonicity hierarchy, unbounded classes        *)
(* ================================================================== *)

let e1_fig1_hierarchy () =
  let t =
    Report.create ~title:"E1 / Figure 1: membership in M, Mdistinct, Mdisjoint"
      ~columns:[ "query"; "M"; "Mdistinct"; "Mdisjoint"; "paper says" ]
  in
  let bounds = { Checker.dom_size = 3; fresh = 3; max_base = 3; max_ext = 3 } in
  let row name q expected extra_bases =
    let check kind =
      match (Checker.check_exhaustive ~bounds kind q, extra_bases) with
      | (Checker.Violated _ as v), _ -> v
      | ok, [] -> ok
      | Checker.No_violation { pairs }, bases -> (
        match Checker.check_on_bases ~fresh:3 ~max_ext:3 kind q bases with
        | Checker.Violated _ as v -> v
        | Checker.No_violation { pairs = p2 } ->
          Checker.No_violation { pairs = pairs + p2 })
    in
    let cell kind = Report.cell_member (not (violated (check kind))) in
    Report.add_row t
      [
        name;
        cell Classes.Plain;
        cell Classes.Distinct;
        cell Classes.Disjoint;
        expected;
      ]
  in
  row "TC" Zoo.tc "M" [];
  row "comp-TC (Q_TC)" Zoo.comp_tc "Mdisjoint \\ Mdistinct" [];
  row "win-move" Zoo.winmove "Mdisjoint \\ Mdistinct" [];
  row "triangles-unless-2-disjoint" Zoo.triangles_unless_two_disjoint
    "C \\ Mdisjoint"
    [ Graph_gen.cycle 3 ];
  Report.add_note t
    "bounded-exhaustive: dom 3 (+3 fresh), bases <= 3 facts, extensions <= 3";
  Report.print t

(* ================================================================== *)
(* E2 — Theorem 3.1(2): the bounded plain classes collapse, M = M^i    *)
(* ================================================================== *)

let e2_bounded_collapse () =
  let t =
    Report.create ~title:"E2 / Thm 3.1(2): M^1 = M^3 on a query sample"
      ~columns:[ "query"; "M^1"; "M^3"; "agree" ]
  in
  let bounds i =
    { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = i }
  in
  List.iter
    (fun (name, q) ->
      let v1 =
        violated (Checker.check_exhaustive ~bounds:(bounds 1) Classes.Plain q)
      in
      let v3 =
        violated (Checker.check_exhaustive ~bounds:(bounds 3) Classes.Plain q)
      in
      Report.add_row t
        [
          name;
          (if v1 then "violated" else "holds");
          (if v3 then "violated" else "holds");
          Report.cell_bool (v1 = v3);
        ])
    [
      ("TC", Zoo.tc);
      ("comp-TC", Zoo.comp_tc);
      ("q-star-2", Zoo.q_star 2);
      ("win-move", Zoo.winmove);
    ];
  Report.add_note t
    "a single added fact already exposes any plain-monotonicity violation";
  Report.print t

(* ================================================================== *)
(* E3 — Theorem 3.1(3,5): the clique ladder                            *)
(* ================================================================== *)

(* A one-directional clique on k vertices starting at [offset]. *)
let half_clique ?(offset = 1) k =
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      edges := (offset + i, offset + j) :: !edges
    done
  done;
  Graph_gen.of_edges !edges

let e3_clique_ladder () =
  let t =
    Report.create
      ~title:
        "E3 / Thm 3.1(3,5): Q^(i+2)-clique in M^i-distinct \\ M^(i+1)-distinct"
      ~columns:[ "query"; "class"; "bound"; "result"; "paper" ]
  in
  let is = if quick then [ 1 ] else [ 1; 2 ] in
  List.iter
    (fun i ->
      let k = i + 2 in
      let q = Zoo.q_clique k in
      let bases = [ half_clique (k - 1); Graph_gen.path 2; Graph_gen.path 1 ] in
      let check kind bound =
        Checker.check_on_bases ~fresh:(k + 1) ~max_ext:bound kind q bases
      in
      let name = Printf.sprintf "Q^%d-clique" k in
      Report.add_row t
        [
          name; "distinct"; string_of_int i;
          verdict_cell (check Classes.Distinct i) ~expect_violation:false;
          "in";
        ];
      Report.add_row t
        [
          name; "distinct"; string_of_int (i + 1);
          verdict_cell (check Classes.Distinct (i + 1)) ~expect_violation:true;
          "NOT in";
        ];
      (* Creating a brand-new k-clique disjointly needs C(k,2) edges. *)
      let fresh_edges_needed = k * (k - 1) / 2 in
      Report.add_row t
        [
          name; "disjoint"; string_of_int (fresh_edges_needed - 1);
          verdict_cell
            (check Classes.Disjoint (fresh_edges_needed - 1))
            ~expect_violation:false;
          "in";
        ];
      Report.add_row t
        [
          name; "disjoint"; string_of_int fresh_edges_needed;
          verdict_cell
            (check Classes.Disjoint fresh_edges_needed)
            ~expect_violation:true;
          "NOT in";
        ])
    is;
  Report.add_note t
    "bases include the (k-1)-clique of the paper's proof; a new centre \
     vertex with i+1 spokes completes a k-clique";
  Report.print t

(* ================================================================== *)
(* E4 — Theorem 3.1(4,6): the star ladder                              *)
(* ================================================================== *)

let e4_star_ladder () =
  let t =
    Report.create
      ~title:"E4 / Thm 3.1(4,6): Q^k-star in M^(k-1)-disjoint \\ M^k-disjoint"
      ~columns:[ "query"; "class"; "bound"; "result"; "paper" ]
  in
  let ks = if quick then [ 2 ] else [ 2; 3 ] in
  List.iter
    (fun k ->
      let q = Zoo.q_star k in
      let bases = [ Graph_gen.star (k - 1); Graph_gen.path 1 ] in
      let check kind bound =
        Checker.check_on_bases ~fresh:(k + 1) ~max_ext:bound kind q bases
      in
      let name = Printf.sprintf "Q^%d-star" k in
      Report.add_row t
        [
          name; "disjoint"; string_of_int (k - 1);
          verdict_cell (check Classes.Disjoint (k - 1)) ~expect_violation:false;
          "in";
        ];
      Report.add_row t
        [
          name; "disjoint"; string_of_int k;
          verdict_cell (check Classes.Disjoint k) ~expect_violation:true;
          "NOT in";
        ];
      (* Thm 3.1(6): one domain-distinct edge at the old centre suffices. *)
      Report.add_row t
        [
          name; "distinct"; "1";
          verdict_cell (check Classes.Distinct 1) ~expect_violation:true;
          "NOT in";
        ])
    ks;
  Report.add_note t
    "k disjoint fresh edges build a brand-new k-spoke star; one distinct \
     edge extends the old centre";
  Report.print t

(* ================================================================== *)
(* E5 — Theorem 3.1(7): the duplicate query                            *)
(* ================================================================== *)

let e5_duplicate () =
  let t =
    Report.create
      ~title:"E5 / Thm 3.1(7): Q^j-duplicate in M^i-distinct \\ M^j-disjoint"
      ~columns:[ "query"; "class"; "bound"; "result"; "paper" ]
  in
  let js = if quick then [ 2 ] else [ 2; 3 ] in
  List.iter
    (fun j ->
      let q = Zoo.q_duplicate j in
      let base =
        Instance.of_list [ Fact.make "R1" [ Value.Int 1; Value.Int 2 ] ]
      in
      let check kind bound =
        Checker.check_on_bases ~fresh:2 ~max_ext:bound kind q [ base ]
      in
      let name = Printf.sprintf "Q^%d-duplicate" j in
      Report.add_row t
        [
          name; "distinct"; string_of_int (j - 1);
          verdict_cell (check Classes.Distinct (j - 1)) ~expect_violation:false;
          "in";
        ];
      Report.add_row t
        [
          name; "disjoint"; string_of_int (j - 1);
          verdict_cell (check Classes.Disjoint (j - 1)) ~expect_violation:false;
          "in";
        ];
      Report.add_row t
        [
          name; "disjoint"; string_of_int j;
          verdict_cell (check Classes.Disjoint j) ~expect_violation:true;
          "NOT in";
        ])
    js;
  Report.add_note t
    "j domain-disjoint facts replicate one fresh tuple across all j relations";
  Report.print t

(* ================================================================== *)
(* E21 — Figure 1, lower half: the bounded ladders as a matrix         *)
(* ================================================================== *)

let e21_bounded_ladders () =
  let t =
    Report.create
      ~title:
        "E21 / Figure 1 (bounded): M^i membership, i = 1..4 (x = violated)"
      ~columns:
        [ "query"; "class"; "i=1"; "i=2"; "i=3"; "i=4"; "certificate (shrunk)" ]
  in
  let cell o = if violated o then "x" else "ok" in
  let certificate q outcomes =
    match
      List.find_map
        (function Checker.Violated v -> Some v | _ -> None)
        outcomes
    with
    | None -> "-"
    | Some v ->
      let v = Shrink.shrink q v in
      Format.asprintf "|I|=%d, |J|=%d"
        (Instance.cardinal v.Classes.base)
        (Instance.cardinal v.Classes.extension)
  in
  let row name q kind bases fresh =
    let outcomes = Checker.ladder ~fresh ~bases kind ~max_i:4 q in
    Report.add_row t
      ([ name; Classes.kind_to_string kind ]
      @ List.map cell outcomes
      @ [ certificate q outcomes ])
  in
  row "Q^3-clique" (Zoo.q_clique 3) Classes.Distinct
    [ half_clique 2; Graph_gen.path 1 ]
    4;
  row "Q^3-clique" (Zoo.q_clique 3) Classes.Disjoint
    [ half_clique 2; Graph_gen.path 1 ]
    4;
  row "Q^2-star" (Zoo.q_star 2) Classes.Distinct
    [ Graph_gen.star 1; Graph_gen.path 1 ]
    4;
  row "Q^2-star" (Zoo.q_star 2) Classes.Disjoint
    [ Graph_gen.star 1; Graph_gen.path 1 ]
    4;
  row "Q^2-duplicate" (Zoo.q_duplicate 2) Classes.Distinct
    [ Instance.of_list [ Fact.make "R1" [ Value.Int 1; Value.Int 2 ] ] ]
    2;
  row "Q^2-duplicate" (Zoo.q_duplicate 2) Classes.Disjoint
    [ Instance.of_list [ Fact.make "R1" [ Value.Int 1; Value.Int 2 ] ] ]
    2;
  row "comp-TC" Zoo.comp_tc Classes.Distinct
    [ Graph_gen.path 1 ]
    2;
  Report.add_note t
    "each first 'x' column realizes a strict inclusion M^(i)_k > M^(i+1)_k \
     of Figure 1; certificates are fact-minimal after shrinking";
  Report.print t

(* ================================================================== *)
(* E6 — Lemma 3.2: E = Mdistinct                                       *)
(* ================================================================== *)

let e6_lemma32 () =
  let t =
    Report.create
      ~title:"E6 / Lemma 3.2: preserved-under-extensions = Mdistinct"
      ~columns:[ "query"; "E-checker"; "Mdistinct-checker"; "agree" ]
  in
  let bounds = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 } in
  List.iter
    (fun (name, q) ->
      let e = violated (Relate.check_extensions_exhaustive ~bounds q) in
      let d = violated (Checker.check_exhaustive ~bounds Classes.Distinct q) in
      Report.add_row t
        [
          name;
          (if e then "violated" else "holds");
          (if d then "violated" else "holds");
          Report.cell_bool (e = d);
        ])
    [
      ("TC", Zoo.tc);
      ("comp-TC", Zoo.comp_tc);
      ("q-clique-3", Zoo.q_clique 3);
      ("q-star-2", Zoo.q_star 2);
      ("win-move", Zoo.winmove);
    ];
  Report.print t

(* ================================================================== *)
(* Network experiment plumbing                                         *)
(* ================================================================== *)

let net2 = Distributed.network_of_ints [ 101; 102 ]

let schedulers =
  [
    ("round-robin", Network.Run.Round_robin);
    ("random", Network.Run.Random { seed = 1; steps = 60 });
    ("stingy", Network.Run.Stingy { seed = 2; steps = 90 });
  ]

(* Complement of the edge relation: the canonical SP-Datalog (hence
   Mdistinct) query used for the F1-level experiments. *)
let comp_edges =
  Query.make ~name:"comp-edges" ~input:Graph_gen.schema
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

let strategy_row t variant ~name ~strategy ~query ~input ~dg_only network =
  let policies =
    Network.Netquery.default_policies ~domain_guided_only:dg_only
      query.Query.input network
  in
  let verdict =
    Network.Netquery.check ~schedulers ~policies ~variant ~transducer:strategy
      ~query ~input network
  in
  let witness =
    Network.Coordination.heartbeat_witness ~variant ~transducer:strategy
      ~query ~input network
  in
  Report.add_row t
    [
      name;
      query.Query.name;
      Report.cell_bool (Network.Netquery.consistent verdict);
      string_of_int (List.length verdict.Network.Netquery.runs);
      Report.cell_bool (witness <> None);
    ]

(* ================================================================== *)
(* E7 — Theorem 4.3: Mdistinct ⊆ F1 (absence strategy)                 *)
(* ================================================================== *)

let e7_policy_aware () =
  let t =
    Report.create
      ~title:
        "E7 / Thm 4.3: the absence strategy is coordination-free on Mdistinct"
      ~columns:[ "strategy"; "query"; "consistent"; "runs"; "hb witness" ]
  in
  let input = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  strategy_row t Network.Config.policy_aware ~name:"absence"
    ~strategy:(Strategies.Absence.transducer comp_edges)
    ~query:comp_edges ~input ~dg_only:false net2;
  strategy_row t Network.Config.policy_aware ~name:"absence"
    ~strategy:(Strategies.Absence.transducer Zoo.comp_tc)
    ~query:Zoo.comp_tc ~input ~dg_only:false net2;
  strategy_row t Network.Config.policy_aware ~name:"broadcast"
    ~strategy:(Strategies.Broadcast.transducer Zoo.tc)
    ~query:Zoo.tc ~input ~dg_only:false net2;
  Report.add_note t
    "consistent = identical, correct output on every policy x scheduler; \
     hb witness = Q(I) computed by heartbeats alone under the ideal policy";
  Report.print t

(* ================================================================== *)
(* E8 — Theorem 4.4: Mdisjoint ⊆ F2 (domain-request strategy)          *)
(* ================================================================== *)

let e8_domain_guided () =
  let t =
    Report.create
      ~title:
        "E8 / Thm 4.4: the domain-request strategy is coordination-free \
         under domain guidance"
      ~columns:[ "strategy"; "query"; "consistent"; "runs"; "hb witness" ]
  in
  let game =
    Instance.of_strings [ "Move(1,2)"; "Move(2,3)"; "Move(4,5)"; "Move(5,4)" ]
  in
  strategy_row t Network.Config.policy_aware ~name:"domain-request"
    ~strategy:(Strategies.Domain_request.transducer Zoo.winmove)
    ~query:Zoo.winmove ~input:game ~dg_only:true net2;
  strategy_row t Network.Config.policy_aware ~name:"domain-request"
    ~strategy:(Strategies.Domain_request.transducer Zoo.comp_tc)
    ~query:Zoo.comp_tc
    ~input:(Graph_gen.of_edges [ (1, 2); (2, 3) ])
    ~dg_only:true net2;
  Report.add_note t "policies restricted to domain-guided ones (F2's model)";
  Report.print t

(* ================================================================== *)
(* E9 — Theorem 4.5 / Corollary 4.6: the All-free and oblivious models *)
(* ================================================================== *)

let e9_all_free () =
  let t =
    Report.create
      ~title:"E9 / Thm 4.5 + Cor 4.6: the same strategies work without All"
      ~columns:
        [ "model"; "strategy"; "query"; "consistent"; "runs"; "hb witness" ]
  in
  let add variant model_name name strategy query input dg =
    let policies =
      Network.Netquery.default_policies ~domain_guided_only:dg
        query.Query.input net2
    in
    let verdict =
      Network.Netquery.check ~schedulers ~policies ~variant
        ~transducer:strategy ~query ~input net2
    in
    let witness =
      Network.Coordination.heartbeat_witness ~variant ~transducer:strategy
        ~query ~input net2
    in
    Report.add_row t
      [
        model_name;
        name;
        query.Query.name;
        Report.cell_bool (Network.Netquery.consistent verdict);
        string_of_int (List.length verdict.Network.Netquery.runs);
        Report.cell_bool (witness <> None);
      ]
  in
  let edges = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let game = Instance.of_strings [ "Move(1,2)"; "Move(2,3)" ] in
  add Network.Config.all_free "All-free" "absence"
    (Strategies.Absence.transducer comp_edges)
    comp_edges edges false;
  add Network.Config.all_free "All-free" "domain-request"
    (Strategies.Domain_request.transducer Zoo.winmove)
    Zoo.winmove game true;
  add Network.Config.oblivious "oblivious" "broadcast"
    (Strategies.Broadcast.transducer Zoo.tc)
    Zoo.tc edges false;
  Report.add_note t
    "A1 = Mdistinct, A2 = Mdisjoint, oblivious = M: knowledge of all nodes \
     is never needed";
  Report.print t

(* ================================================================== *)
(* E10 — Figure 2 columns: strictness F0 ⊊ F1 ⊊ F2                     *)
(* ================================================================== *)

let e10_strictness () =
  let t =
    Report.create
      ~title:"E10 / Fig 2: each strategy fails one level up the hierarchy"
      ~columns:[ "strategy (level)"; "query (level)"; "outcome" ]
  in
  let edges = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  let verdict =
    Network.Netquery.check ~schedulers ~variant:Network.Config.policy_aware
      ~transducer:(Strategies.Broadcast.transducer comp_edges)
      ~query:comp_edges ~input:edges net2
  in
  Report.add_row t
    [
      "broadcast (F0)";
      "comp-edges (Mdistinct)";
      Printf.sprintf "%d/%d runs wrong"
        (List.length verdict.Network.Netquery.mismatches)
        (List.length verdict.Network.Netquery.runs);
    ];
  let verdict =
    Network.Netquery.check ~schedulers ~variant:Network.Config.original
      ~transducer:(Strategies.Absence.transducer comp_edges)
      ~query:comp_edges ~input:edges net2
  in
  Report.add_row t
    [
      "absence w/o policy rels (F0 model)";
      "comp-edges (Mdistinct)";
      Printf.sprintf "%d/%d runs wrong"
        (List.length verdict.Network.Netquery.mismatches)
        (List.length verdict.Network.Netquery.runs);
    ];
  let wrong = Scripted.absence_winmove_wrong_output () in
  Report.add_row t
    [
      "absence (F1)";
      "win-move (Mdisjoint)";
      (match wrong with
      | Some f -> Printf.sprintf "wrong fact %s produced" (Fact.to_string f)
      | None -> "no wrong output  <<< UNEXPECTED");
    ];
  let verdict =
    Network.Netquery.check ~schedulers ~variant:Network.Config.policy_aware
      ~policies:
        (Network.Netquery.default_policies ~domain_guided_only:true
           Zoo.winmove.Query.input net2)
      ~transducer:(Strategies.Domain_request.transducer Zoo.winmove)
      ~query:Zoo.winmove
      ~input:(Instance.of_strings [ "Move(1,2)"; "Move(2,3)" ])
      net2
  in
  Report.add_row t
    [
      "domain-request (F2)";
      "win-move (Mdisjoint)";
      Printf.sprintf "%d/%d runs wrong"
        (List.length verdict.Network.Netquery.mismatches)
        (List.length verdict.Network.Netquery.runs);
    ];
  Report.add_note t "F0 < F1 < F2: Zinn et al.'s hierarchy, reproduced";
  Report.print t

(* ================================================================== *)
(* E11 — Lemma 5.2: con-Datalog¬ distributes over components           *)
(* ================================================================== *)

let e11_components () =
  let t =
    Report.create
      ~title:"E11 / Lemma 5.2: connected programs distribute over components"
      ~columns:[ "program"; "inputs"; "Q(I) = U Q(C)"; "outputs adom-disjoint" ]
  in
  let programs =
    [
      ("P1 (Example 5.1)", Datalog.Program.parse Zoo.example_51_p1);
      ("TC", Datalog.Program.parse ~outputs:[ "T" ] Zoo.tc_program);
    ]
  in
  let trials = if quick then 10 else 30 in
  List.iter
    (fun (name, p) ->
      let ok_union = ref true and ok_disjoint = ref true in
      for seed = 0 to trials - 1 do
        let a = Graph_gen.erdos_renyi ~seed ~nodes:4 ~edges:5 in
        let b = Graph_gen.erdos_renyi ~seed:(seed + 1000) ~nodes:4 ~edges:4 in
        let i = Graph_gen.disjoint_union a b in
        let whole = Datalog.Program.run p i in
        let comps = Component.components i in
        let parts = List.map (Datalog.Program.run p) comps in
        let union = List.fold_left Instance.union Instance.empty parts in
        if not (Instance.equal whole union) then ok_union := false;
        List.iteri
          (fun x ox ->
            List.iteri
              (fun y oy ->
                if x < y && not (Instance.is_domain_disjoint_from ox oy) then
                  ok_disjoint := false)
              parts)
          parts
      done;
      Report.add_row t
        [
          name;
          string_of_int trials;
          Report.cell_bool !ok_union;
          Report.cell_bool !ok_disjoint;
        ])
    programs;
  Report.add_note t "random two-component inputs; components via union-find";
  Report.print t

(* ================================================================== *)
(* E12 — Theorem 5.3: semicon-Datalog¬ ⊆ Mdisjoint                     *)
(* ================================================================== *)

let e12_semicon () =
  let t =
    Report.create
      ~title:"E12 / Thm 5.3: semicon-Datalog programs sit in Mdisjoint"
      ~columns:[ "program"; "fragment"; "Mdisjoint check"; "paper" ]
  in
  let bounds = { Checker.dom_size = 3; fresh = 3; max_base = 3; max_ext = 3 } in
  let row name src expect_in =
    let p = Datalog.Program.parse src in
    let fragment = Datalog.Fragment.to_string (Datalog.Program.fragment p) in
    let q = Datalog.Program.query ~name p in
    let outcome = Checker.check_exhaustive ~bounds Classes.Disjoint q in
    Report.add_row t
      [
        name;
        fragment;
        verdict_cell outcome ~expect_violation:(not expect_in);
        (if expect_in then "in" else "NOT in");
      ]
  in
  row "P1 (Example 5.1)" Zoo.example_51_p1 true;
  row "comp-TC (semicon)" Zoo.comp_tc_program true;
  row "P2 (Example 5.1, not semicon)" Zoo.example_51_p2 false;
  Report.add_note t
    "P2's violation needs two disjoint triangles: found with 3 fresh values \
     against a triangle base";
  Report.print t

(* ================================================================== *)
(* E13 — Section 7: win-move via the doubled program                   *)
(* ================================================================== *)

let e13_winmove_doubled () =
  let t =
    Report.create
      ~title:"E13 / Sec 7: well-founded win-move = doubled-program win-move"
      ~columns:[ "games"; "nodes"; "edges"; "all equal" ]
  in
  let trials = if quick then 15 else 50 in
  let ok = ref true in
  for seed = 0 to trials - 1 do
    let g = Graph_gen.game ~seed ~nodes:8 ~edges:14 in
    let a = Query.apply Zoo.winmove g in
    let b = Query.apply Zoo.winmove_doubled g in
    if not (Instance.equal a b) then ok := false
  done;
  Report.add_row t [ string_of_int trials; "8"; "14"; Report.cell_bool !ok ];
  Report.add_note t
    "the doubled evaluation iterates the connected SP-Datalog step \
     W(x) :- Move(x,y), not P(y)";
  Report.print t

(* ================================================================== *)
(* E16 — Theorem 5.4: semicon-wILOG¬ and Mdisjoint                     *)
(* ================================================================== *)

let e16_wilog () =
  let t =
    Report.create
      ~title:
        "E16 / Thm 5.4: wILOG value invention — fragments and Mdisjoint"
      ~columns:
        [ "program"; "weakly safe"; "SP"; "semicon"; "Mdisjoint check" ]
  in
  let bounds = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 } in
  let row name src query =
    let p = Datalog.Adom.augment (Datalog.Parser.parse_program src) in
    let safe = Datalog.Ilog.is_weakly_safe ~outputs:[ "O" ] p in
    let sp = Datalog.Ilog.is_sp_wilog p in
    let semicon = Datalog.Ilog.is_semi_connected_wilog p in
    let verdict =
      match query with
      | None -> "n/a (rejected)"
      | Some q ->
        verdict_cell
          (Checker.check_exhaustive ~bounds Classes.Disjoint q)
          ~expect_violation:false
    in
    Report.add_row t
      [
        name;
        Report.cell_bool safe;
        Report.cell_bool sp;
        Report.cell_bool semicon;
        verdict;
      ]
  in
  row "tagged-edges (SP-wILOG)" Wilog_zoo.tagged_edges
    (Some Wilog_zoo.tagged_edges_query);
  row "sinks-of-sources (semicon-wILOG)" Wilog_zoo.sinks_of_sources
    (Some Wilog_zoo.sinks_of_sources_query);
  row "unsafe-leak" Wilog_zoo.unsafe_leak None;
  Report.add_note t
    "semicon-wILOG programs stay in Mdisjoint (Thm 5.4, easy direction); \
     the unsafe program is rejected statically by the weak-safety closure";
  Report.print t

(* ================================================================== *)
(* E14 — cost of the three strategies (the paper's Sec 4.3 discussion) *)
(* ================================================================== *)

let e14_costs () =
  let t =
    Report.create
      ~title:"E14 / Sec 4.3: cost of the naive evaluation strategies"
      ~columns:
        [ "strategy"; "query"; "nodes"; "messages"; "transitions"; "rounds" ]
  in
  let sizes = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let run name strategy query input dg n =
    let network =
      Distributed.network_of_ints (List.init n (fun i -> 500 + i))
    in
    let policy =
      if dg then Network.Policy.hash_value query.Query.input network
      else Network.Policy.hash_fact query.Query.input network
    in
    let r =
      Network.Run.run ~variant:Network.Config.policy_aware ~policy
        ~transducer:strategy ~input Network.Run.Round_robin
    in
    Report.add_row t
      [
        name;
        query.Query.name;
        string_of_int n;
        string_of_int r.Network.Run.messages_sent;
        string_of_int r.Network.Run.transitions;
        string_of_int r.Network.Run.rounds;
      ]
  in
  let edges = Graph_gen.erdos_renyi ~seed:9 ~nodes:6 ~edges:8 in
  let game = Graph_gen.game ~seed:9 ~nodes:6 ~edges:8 in
  List.iter
    (fun n ->
      run "broadcast" (Strategies.Broadcast.transducer Zoo.tc) Zoo.tc edges
        false n;
      run "absence"
        (Strategies.Absence.transducer comp_edges)
        comp_edges edges false n;
      run "domain-request"
        (Strategies.Domain_request.transducer Zoo.winmove)
        Zoo.winmove game true n)
    sizes;
  Report.add_note t
    "same input per strategy; messages grow with node count — the \
     inefficiency the paper's conclusion points at";
  Report.print t

(* ================================================================== *)
(* E17 — ablation: rebroadcast vs send-once (the paper's future work)  *)
(* ================================================================== *)

let e17_delta_ablation () =
  let t =
    Report.create
      ~title:"E17 / ablation: naive rebroadcast vs send-once delta (M strategy)"
      ~columns:[ "variant"; "nodes"; "messages"; "correct" ]
  in
  let input = Graph_gen.erdos_renyi ~seed:21 ~nodes:8 ~edges:12 in
  let expected = Query.apply Zoo.tc input in
  let sizes = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  List.iter
    (fun n ->
      let network =
        Distributed.network_of_ints (List.init n (fun i -> 700 + i))
      in
      let policy = Network.Policy.hash_fact Graph_gen.schema network in
      let run name transducer =
        let r =
          Network.Run.run ~variant:Network.Config.policy_aware ~policy
            ~transducer ~input Network.Run.Round_robin
        in
        Report.add_row t
          [
            name;
            string_of_int n;
            string_of_int r.Network.Run.messages_sent;
            Report.cell_bool (Instance.equal r.Network.Run.outputs expected);
          ]
      in
      run "broadcast (naive)" (Strategies.Broadcast.transducer Zoo.tc);
      run "broadcast-delta" (Strategies.Broadcast_delta.transducer Zoo.tc))
    sizes;
  Report.add_note t
    "delta sends each fact once per holder instead of once per transition \
     — same outputs, strictly fewer messages";
  Report.print t

(* ================================================================== *)
(* E22 — the punchline: strategy x query-level matrix                  *)
(* ================================================================== *)

let e22_matrix () =
  let t =
    Report.create
      ~title:
        "E22 / the refined CALM theorem as a matrix: which strategy computes \
         which query"
      ~columns:
        [ "query (its class)"; "broadcast (F0)"; "absence (F1)";
          "domain-request (F2)" ]
  in
  let game = Instance.of_strings [ "Move(1,2)"; "Move(2,3)" ] in
  let edges = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  let cell strategy query input dg =
    let policies =
      Network.Netquery.default_policies ~domain_guided_only:dg
        query.Query.input net2
    in
    let verdict =
      Network.Netquery.check ~schedulers ~policies
        ~variant:Network.Config.policy_aware ~transducer:strategy ~query
        ~input net2
    in
    if Network.Netquery.consistent verdict then "computes"
    else
      Printf.sprintf "WRONG (%d/%d runs)"
        (List.length verdict.Network.Netquery.mismatches)
        (List.length verdict.Network.Netquery.runs)
  in
  let row name query input =
    (* Every strategy needs its level's policy restriction to even have a
       chance; domain-request is only defined under domain guidance. *)
    Report.add_row t
      [
        name;
        cell (Strategies.Broadcast.transducer query) query input false;
        cell (Strategies.Absence.transducer query) query input false;
        cell (Strategies.Domain_request.transducer query) query input true;
      ]
  in
  row "TC (M)" Zoo.tc edges;
  row "comp-edges (Mdistinct)" comp_edges edges;
  (* The absence/win-move cell needs the scripted adversarial schedule —
     random sampling can miss the unsound interleaving. *)
  Report.add_row t
    [
      "win-move (Mdisjoint)";
      cell (Strategies.Broadcast.transducer Zoo.winmove) Zoo.winmove game false;
      (match Scripted.absence_winmove_wrong_output () with
      | Some f -> Printf.sprintf "WRONG (%s, scripted)" (Fact.to_string f)
      | None ->
        cell (Strategies.Absence.transducer Zoo.winmove) Zoo.winmove game
          false);
      cell (Strategies.Domain_request.transducer Zoo.winmove) Zoo.winmove game
        true;
    ];
  Report.add_note t
    "lower-left of the diagonal fails, diagonal and upper-right compute: \
     exactly the refined CALM theorem";
  Report.print t

(* ================================================================== *)
(* E19 — exhaustive verification (bounded model checking)              *)
(* ================================================================== *)

let e19_model_checking () =
  let t =
    Report.create
      ~title:
        "E19 / model checking: every message order, exhaustively (tiny inputs)"
      ~columns:[ "strategy"; "query"; "verdict" ]
  in
  let parity =
    Network.Policy.make ~name:"parity" Graph_gen.schema net2 (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ Value.Int 101 ]
        | _ -> [ Value.Int 102 ])
  in
  let row name strategy query input variant policy =
    let verdict =
      Network.Explore.check ~max_configs:60_000 ~variant ~policy
        ~transducer:strategy ~query ~input ()
    in
    Report.add_row t
      [ name; query.Query.name; Network.Explore.verdict_to_string verdict ]
  in
  let two_edges = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let crossed = Graph_gen.of_edges [ (1, 2); (2, 1) ] in
  row "broadcast" (Strategies.Broadcast.transducer Zoo.tc) Zoo.tc two_edges
    Network.Config.oblivious parity;
  row "broadcast"
    (Strategies.Broadcast.transducer comp_edges)
    comp_edges crossed Network.Config.policy_aware parity;
  (* Keep the value universe tiny for the absence strategy: its messages
     range over all candidate facts on adom ∪ N, so let the node ids
     coincide with the data values. *)
  let tiny_net = Distributed.network_of_ints [ 1; 2 ] in
  let parity_tiny =
    Network.Policy.make ~name:"parity" Graph_gen.schema tiny_net (fun f ->
        match Fact.arg f 0 with
        | Value.Int a when a mod 2 = 1 -> [ Value.Int 1 ]
        | _ -> [ Value.Int 2 ])
  in
  row "absence"
    (Strategies.Absence.transducer comp_edges)
    comp_edges
    (Graph_gen.of_edges [ (1, 2) ])
    Network.Config.policy_aware parity_tiny;
  let one_move = Instance.of_strings [ "Move(5,6)" ] in
  row "domain-request"
    (Strategies.Domain_request.transducer Zoo.winmove)
    Zoo.winmove one_move Network.Config.policy_aware
    (Network.Policy.hash_value Zoo.winmove.Query.input net2);
  Report.add_note t
    "exhaustive over buffer-support-abstracted configurations with \
     heartbeat/full/singleton deliveries; 'wrong output' rows reproduce the \
     hierarchy separations with certainty rather than by sampling";
  Report.print t

(* ================================================================== *)
(* E25 — empirical coordination: heard-from-all cuts vs static claims  *)
(* ================================================================== *)

let e25_empirical_coordination () =
  let t =
    Report.create
      ~title:
        "E25 / empirical coordination: heard-from-all-nodes cuts in causal \
         cones vs the static CALM placement"
      ~columns:[ "query"; "static"; "observed"; "free cells"; "verdict" ]
  in
  let entries = Empirical.zoo ~jobs () in
  List.iter
    (fun (e : Empirical.entry) ->
      let free_cells =
        List.filter
          (fun (v : Empirical.policy_verdict) ->
            v.Empirical.correct && v.Empirical.quiesced
            && not v.Empirical.coordinated)
          e.Empirical.runs
      in
      Report.add_row t
        [
          Printf.sprintf "%s (%s)" e.Empirical.name
            (Hierarchy.to_string e.Empirical.level);
          (if e.Empirical.static_free then "free" else "coordinated");
          (if e.Empirical.observed_free then "free" else "coordinated");
          Printf.sprintf "%d/%d"
            (List.length free_cells)
            (List.length e.Empirical.runs);
          (if e.Empirical.agree then "AGREE" else "DISAGREE  <<< UNEXPECTED");
        ])
    entries;
  (match
     List.find_opt (fun (e : Empirical.entry) -> e.Empirical.name = "winmove")
       entries
   with
  | None -> ()
  | Some e ->
    Report.add_note t
      (Printf.sprintf "win-move per cell: %s"
         (String.concat "; "
            (List.map
               (fun (v : Empirical.policy_verdict) ->
                 Printf.sprintf "%s %s" v.Empirical.label
                   (if v.Empirical.coordinated then "coordinated" else "free"))
               e.Empirical.runs))));
  Report.add_note t
    "observed free = some correct quiescent run in which no output fact's \
     causal cone touches every node (Definition 3's existential over \
     policies/runs); Beyond queries run the coordinated barrier strategy, \
     so every cone spans the network — win-move flips per placement: free \
     under replicate-all/single, coordinated under the scatter policy";
  Report.print t

(* ================================================================== *)
(* E26 — fault-injection overhead: fault plan vs base schedulers      *)
(* ================================================================== *)

let e26_fault_overhead () =
  let t =
    Report.create
      ~title:
        "E26 / fault battery: fault-plan overhead on the E1/E2-class \
         runs (tc, broadcast strategy)"
      ~columns:
        [
          "scheduler"; "nodes"; "base deliveries"; "faulty deliveries";
          "overhead"; "messages"; "dup/drop/crash"; "correct";
        ]
  in
  let query = Zoo.tc in
  let transducer = Strategies.Broadcast.transducer query in
  let input = Graph_gen.erdos_renyi ~seed:26 ~nodes:8 ~edges:12 in
  let expected = Query.apply query input in
  let counter name =
    match
      List.find_opt
        (fun (r : Observe.Metrics.row) -> r.Observe.Metrics.name = name)
        (Observe.Metrics.snapshot ~stable_only:true Observe.Metrics.root)
    with
    | Some r -> r.Observe.Metrics.count
    | None -> 0
  in
  let sizes = if quick then [ 3 ] else [ 3; 6 ] in
  List.iter
    (fun n ->
      let ids = List.init n (fun i -> 1 + i) in
      let network = Distributed.network_of_ints ids in
      let policy = Network.Policy.hash_fact query.Query.input network in
      let half = n / 2 in
      let plan =
        {
          Network.Fault.seed = 26;
          dup_prob = 0.4;
          dup_copies = 3;
          loss_prob = 0.25;
          loss_delay = 2;
          horizon = 4;
          crashes = [ (Value.int 2, 2) ];
          partitions =
            [
              {
                Network.Fault.from_round = 1;
                rounds = 2;
                groups =
                  [
                    List.map Value.int (List.filteri (fun i _ -> i < half) ids);
                    List.map Value.int
                      (List.filteri (fun i _ -> i >= half) ids);
                  ];
              };
            ];
        }
      in
      List.iter
        (fun (sname, base) ->
          let go ?faults () =
            Network.Run.run ?faults ~variant:Network.Config.oblivious ~policy
              ~transducer ~input base
          in
          let rb = go () in
          let d0 = counter "network.dup_deliveries" in
          let l0 = counter "network.dropped" in
          let c0 = counter "network.crashes" in
          let rf = go ~faults:plan () in
          let base = rb.Network.Run.deliveries
          and faulty = rf.Network.Run.deliveries in
          Report.add_row t
            [
              sname;
              string_of_int n;
              string_of_int base;
              string_of_int faulty;
              Printf.sprintf "%.2fx"
                (float_of_int faulty /. float_of_int (max base 1));
              string_of_int rf.Network.Run.messages_sent;
              Printf.sprintf "%d/%d/%d"
                (counter "network.dup_deliveries" - d0)
                (counter "network.dropped" - l0)
                (counter "network.crashes" - c0);
              Report.cell_bool
                (rf.Network.Run.quiesced
                && Instance.equal rf.Network.Run.outputs expected);
            ])
        [
          ("round_robin", Network.Run.Round_robin);
          ("random", Network.Run.Random { seed = 1; steps = 40 });
          ("stingy", Network.Run.Stingy { seed = 2; steps = 60 });
          ("adversarial", Network.Run.Adversarial { steps = 40 });
        ])
    sizes;
  Report.add_note t
    "every faulty run still quiesces with outputs = Q(I); the overhead \
     column is faulty/base deliveries (the extra ones are duplicated \
     copies, retransmissions, post-crash redelivery and partition \
     backlogs); network.* counters land in this experiment's stable \
     metrics for the report --diff gate";
  Report.print t

(* ================================================================== *)

let () =
  Printf.printf
    "CALM hierarchy reproduction benches%s\n\
     paper: Ameloot, Ketsman, Neven, Zinn - PODS 2014\n\n"
    (if quick then " (--quick)" else "");
  print_string (Figure2.render ());
  print_newline ();
  experiment "E1" e1_fig1_hierarchy;
  experiment "E2" e2_bounded_collapse;
  experiment "E3" e3_clique_ladder;
  experiment "E4" e4_star_ladder;
  experiment "E5" e5_duplicate;
  experiment "E21" e21_bounded_ladders;
  experiment "E6" e6_lemma32;
  experiment "E7" e7_policy_aware;
  experiment "E8" e8_domain_guided;
  experiment "E9" e9_all_free;
  experiment "E10" e10_strictness;
  experiment "E22" e22_matrix;
  experiment "E11" e11_components;
  experiment "E12" e12_semicon;
  experiment "E13" e13_winmove_doubled;
  experiment "E16" e16_wilog;
  experiment "E14" e14_costs;
  experiment "E17" e17_delta_ablation;
  experiment "E19" e19_model_checking;
  experiment "E25" e25_empirical_coordination;
  experiment "E26" e26_fault_overhead;
  (match json_out with Some file -> emit_json file | None -> ());
  print_endline "\nall experiment tables printed."
