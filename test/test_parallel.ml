(* The parallel ≡ sequential test wall.

   Every parallel code path (Pool.map, Pool.search, the ?jobs paths of
   the membership checker and the sweep driver) is checked to agree
   verdict-for-verdict — certificates and counts included — with the
   sequential scan, at jobs ∈ {1, 2, 4}. A regression test pins the
   determinism of the first-violation-in-enumeration-order selection. *)

open Relational
open Monotone
open Queries
open Parallel

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool.map ≡ List.map *)

let prop_map_pure =
  QCheck2.Test.make ~name:"Pool.map = List.map (pure functions)" ~count:60
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 5) (list (int_range (-50) 50)))
    (fun (jobs, k, xs) ->
      let f x = (x * x) + (k * x) - 7 in
      Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs) = List.map f xs)

exception Boom of int

let prop_map_exceptions =
  QCheck2.Test.make
    ~name:"Pool.map = List.map (raising functions, first exception wins)"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 4) (list (int_range 0 30)))
    (fun (jobs, modulus, xs) ->
      let f x = if x mod modulus = 0 then raise (Boom x) else x + 1 in
      let outcome g = match g () with
        | ys -> Ok ys
        | exception Boom i -> Error i
      in
      outcome (fun () -> Pool.with_pool ~jobs (fun p -> Pool.map p f xs))
      = outcome (fun () -> List.map f xs))

(* What a raising map commits: each task adds its element to a counter
   before it may raise, so the stable snapshot shows which tasks
   committed. It must be List.map's: every task up to and including the
   first raising element, none after it. *)
let m_added = Observe.Metrics.counter "test.map_added"

let prop_map_commits =
  QCheck2.Test.make
    ~name:"Pool.map commits like List.map (raising tasks)" ~count:60
    QCheck2.Gen.(pair (int_range 2 9) (list (int_range 1 30)))
    (fun (modulus, xs) ->
      let f x =
        Observe.Metrics.incr ~by:x m_added;
        if x mod modulus = 0 then raise (Boom x) else x
      in
      let recorded map =
        let buf = Observe.Metrics.create () in
        let outcome =
          Observe.Metrics.with_current buf (fun () ->
              match map f xs with ys -> Ok ys | exception Boom i -> Error i)
        in
        (outcome, Observe.Metrics.render_stable buf)
      in
      let expected = recorded List.map in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p -> recorded (Pool.map p)) = expected)
        job_counts)

let test_map_pool_survives_exception () =
  (* A raising map must not poison the pool: the same pool keeps
     serving parallel regions afterwards. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool (fun x -> if x = 3 then raise (Boom 3) else x)
               [ 1; 2; 3; 4; 5 ]
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 3 -> ());
      check_bool "pool still works" true
        (Pool.map pool (fun x -> x * 2) [ 1; 2; 3 ] = [ 2; 4; 6 ]);
      check_bool "and again" true
        (Pool.map pool string_of_int [ 7; 8 ] = [ "7"; "8" ]))

let prop_search_first_hit =
  QCheck2.Test.make
    ~name:"Pool.search = sequential scan (first hit, exhausted count)"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (list (int_range 0 40)))
    (fun (jobs, xs) ->
      let f x = if x mod 7 = 0 then Some (x * 10) else None in
      let sequential =
        match List.find_map f xs with
        | Some b -> Pool.Found b
        | None -> Pool.Exhausted (List.length xs)
      in
      Pool.with_pool ~jobs (fun pool -> Pool.search pool f (List.to_seq xs))
      = sequential)

(* ------------------------------------------------------------------ *)
(* Checker equivalence across the query zoo *)

let violation_equal (a : Classes.violation) (b : Classes.violation) =
  a.Classes.kind = b.Classes.kind
  && a.Classes.bound = b.Classes.bound
  && Instance.equal a.Classes.base b.Classes.base
  && Instance.equal a.Classes.extension b.Classes.extension
  && Fact.equal a.Classes.missing b.Classes.missing

let outcome_equal a b =
  match (a, b) with
  | Checker.No_violation { pairs = p }, Checker.No_violation { pairs = q } ->
    p = q
  | Checker.Violated u, Checker.Violated v -> violation_equal u v
  | _ -> false

let small = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }

let zoo =
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

let test_checker_zoo_equivalence () =
  List.iter
    (fun (name, q) ->
      let bounds =
        (* Win-move enumerates over the Move schema; keep the widest
           queries inside test-time budgets without losing violations. *)
        if name = "win-move" || name = "win-move-doubled" then
          { small with Checker.max_base = 2 }
        else small
      in
      List.iter
        (fun kind ->
          let seq = Checker.check_exhaustive ~bounds kind q in
          List.iter
            (fun jobs ->
              let par = Checker.check_exhaustive ~bounds ~jobs kind q in
              check_bool
                (Printf.sprintf "%s/%s at jobs=%d" name
                   (Classes.kind_to_string kind) jobs)
                true (outcome_equal seq par))
            job_counts)
        [ Classes.Plain; Classes.Distinct; Classes.Disjoint ])
    zoo

let test_checker_random_equivalence () =
  (* The randomized checker draws its pair stream from a seeded RNG in
     enumeration order, so it too is jobs-independent. *)
  List.iter
    (fun jobs ->
      let seq = Checker.check_random ~trials:300 Classes.Distinct Zoo.comp_tc in
      let par =
        Checker.check_random ~trials:300 ~jobs Classes.Distinct Zoo.comp_tc
      in
      check_bool (Printf.sprintf "random checker at jobs=%d" jobs) true
        (outcome_equal seq par))
    job_counts

(* ------------------------------------------------------------------ *)
(* Determinism regression: first-in-enumeration-order selection *)

let test_parallel_certificate_deterministic () =
  let certificate () =
    match
      Checker.check_exhaustive ~bounds:small ~jobs:4 Classes.Distinct
        Zoo.comp_tc
    with
    | Checker.No_violation _ -> Alcotest.fail "expected a violation"
    | Checker.Violated v ->
      Format.asprintf "%a" Classes.pp_violation (Shrink.shrink Zoo.comp_tc v)
  in
  let first = certificate () in
  for i = 2 to 10 do
    Alcotest.(check string) (Printf.sprintf "run %d" i) first (certificate ())
  done;
  (* And the parallel certificate is the sequential one. *)
  match Checker.check_exhaustive ~bounds:small Classes.Distinct Zoo.comp_tc with
  | Checker.No_violation _ -> Alcotest.fail "expected a violation"
  | Checker.Violated v ->
    Alcotest.(check string) "matches sequential" first
      (Format.asprintf "%a" Classes.pp_violation (Shrink.shrink Zoo.comp_tc v))

(* ------------------------------------------------------------------ *)
(* Sweep equivalence: the policy x scheduler grid *)

let net2 = Explore_cells.net2
let comp_edges = Explore_cells.comp_edges

let test_netquery_sweep_equivalence () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  let run ?jobs () =
    Network.Netquery.check ?jobs ~variant:Network.Config.policy_aware
      ~transducer:(Strategies.Absence.transducer comp_edges)
      ~query:comp_edges ~input net2
  in
  let seq = run () in
  List.iter
    (fun jobs ->
      let par = run ~jobs () in
      check_bool
        (Printf.sprintf "labels at jobs=%d" jobs)
        true
        (List.map fst seq.Network.Netquery.runs
        = List.map fst par.Network.Netquery.runs);
      check_bool
        (Printf.sprintf "outputs at jobs=%d" jobs)
        true
        (List.for_all2
           (fun (_, (a : Network.Run.result)) (_, (b : Network.Run.result)) ->
             Instance.equal a.Network.Run.outputs b.Network.Run.outputs
             && a.Network.Run.quiesced = b.Network.Run.quiesced
             && a.Network.Run.messages_sent = b.Network.Run.messages_sent
             && a.Network.Run.transitions = b.Network.Run.transitions)
           seq.Network.Netquery.runs par.Network.Netquery.runs);
      check_bool
        (Printf.sprintf "mismatches at jobs=%d" jobs)
        true
        (seq.Network.Netquery.mismatches = par.Network.Netquery.mismatches))
    job_counts

(* ------------------------------------------------------------------ *)
(* Pool plumbing *)

let test_pool_basics () =
  check_bool "default jobs >= 1" true (Pool.default_jobs () >= 1);
  Pool.with_pool ~jobs:3 (fun pool -> check_int "jobs" 3 (Pool.jobs pool));
  (* jobs <= 1 is clamped and spawns nothing. *)
  Pool.with_pool ~jobs:0 (fun pool ->
      check_int "clamped" 1 (Pool.jobs pool);
      check_bool "sequential map" true
        (Pool.map pool succ [ 1; 2 ] = [ 2; 3 ]))

let test_pool_map_empty_and_large () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check_bool "empty" true (Pool.map pool succ [] = []);
      let xs = List.init 1000 Fun.id in
      check_bool "1000 elements ordered" true
        (Pool.map pool (fun x -> x * 3) xs = List.map (fun x -> x * 3) xs))

let test_search_cancellation_deterministic () =
  (* Many hits: always the first in enumeration order. *)
  let xs = List.init 500 Fun.id in
  Pool.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 20 do
        match
          Pool.search pool
            (fun x -> if x >= 100 then Some x else None)
            (List.to_seq xs)
        with
        | Pool.Found 100 -> ()
        | Pool.Found x -> Alcotest.fail (Printf.sprintf "found %d" x)
        | Pool.Exhausted _ -> Alcotest.fail "exhausted"
      done)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_map_pure;
      prop_map_exceptions;
      prop_search_first_hit;
      prop_map_commits;
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "basics" `Quick test_pool_basics;
          Alcotest.test_case "map empty/large" `Quick
            test_pool_map_empty_and_large;
          Alcotest.test_case "survives exceptions" `Quick
            test_map_pool_survives_exception;
          Alcotest.test_case "search cancellation" `Quick
            test_search_cancellation_deterministic;
        ] );
      ( "checker-wall",
        [
          Alcotest.test_case "zoo equivalence" `Slow
            test_checker_zoo_equivalence;
          Alcotest.test_case "random checker equivalence" `Slow
            test_checker_random_equivalence;
          Alcotest.test_case "certificate determinism (10x)" `Slow
            test_parallel_certificate_deterministic;
        ] );
      ( "sweep-wall",
        [
          Alcotest.test_case "netquery grid equivalence" `Slow
            test_netquery_sweep_equivalence;
        ] );
      ("properties", qcheck_cases);
    ]
