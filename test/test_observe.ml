(* The telemetry test wall.

   Three claims are pinned here:
   1. Stable metric snapshots are byte-identical across jobs 1/2/4 — on
      the policy × scheduler sweep grid, on the zoo membership checks
      (including cancelled searches), and on the model checker.
   2. The exporters round-trip: run traces through JSONL, and the Chrome
      export parses and validates.
   3. The schema validators accept what the exporters emit and reject
      tampered documents.
   Plus regressions for the two bugs fixed alongside the telemetry
   layer: parallel sweeps used to drop traces, and heartbeat prefixes
   used to report rounds = 0. *)

open Relational
open Monotone
open Queries

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_str name expected actual = Alcotest.(check string) name expected actual

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Json: parse/print round-trips *)

let test_json_roundtrip () =
  let open Observe.Json in
  let samples =
    [
      Null;
      Bool true;
      Int 42;
      Int (-7);
      Float 3.25;
      Float 1e-9;
      String "plain";
      String "esc \"quotes\" \\ back\nnewline \t tab \x01 ctrl";
      List [ Int 1; Null; String "x" ];
      Obj [ ("a", Int 1); ("b", List [ Bool false ]); ("c", Obj []) ];
    ]
  in
  List.iter
    (fun j ->
      let s = to_string j in
      match of_string s with
      | Error m -> Alcotest.failf "reparse of %s failed: %s" s m
      | Ok j' -> check_bool ("roundtrip " ^ s) true (equal j j'))
    samples;
  (* Pretty-printed output parses back to the same tree. *)
  let j = Obj [ ("xs", List [ Int 1; Int 2 ]); ("s", String "hi") ] in
  (match of_string (to_string_pretty j) with
  | Ok j' -> check_bool "pretty roundtrip" true (equal j j')
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (Result.is_error (of_string bad)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* Strings are byte sequences: the printer must emit pure ASCII (every
   control byte, DEL, and byte >= 0x80 escaped as \u00XX) and the parser
   must decode it back to the identical bytes — including NUL, ESC
   sequences, UTF-8 fragments, and lone high bytes. *)
let adversarial_samples =
  [
    "\x00";
    "\x00\x01\x02tail";
    "\x7f";
    "\x1b[31mred\x1b[0m";
    "\xff\xfe";
    "\xe2\x9c\x93 check";
    "mixed \"quote\" \\ \n \xc3\xa9 \x05";
    String.init 256 Char.chr;
  ]

let test_json_adversarial_bytes () =
  let open Observe.Json in
  List.iter
    (fun s ->
      let printed = to_string (String s) in
      check_bool "printed form is pure printable ASCII" true
        (String.for_all
           (fun c -> Char.code c >= 0x20 && Char.code c < 0x7f)
           printed);
      match of_string printed with
      | Ok (String s') -> check_bool "bytes survive" true (String.equal s s')
      | Ok _ -> Alcotest.fail "reparsed to a non-string"
      | Error m -> Alcotest.failf "reparse failed on %S: %s" s m)
    adversarial_samples

let gen_byte_string =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 48))

let prop_json_string_bytes_roundtrip =
  QCheck2.Test.make ~name:"Json print/parse identity on arbitrary bytes"
    ~count:500 gen_byte_string (fun s ->
      let printed = Observe.Json.to_string (Observe.Json.String s) in
      String.for_all
        (fun c -> Char.code c >= 0x20 && Char.code c < 0x7f)
        printed
      &&
      match Observe.Json.of_string printed with
      | Ok (Observe.Json.String s') -> String.equal s s'
      | _ -> false)

let prop_json_obj_keys_bytes_roundtrip =
  QCheck2.Test.make ~name:"Json object keys survive arbitrary bytes"
    ~count:200 gen_byte_string (fun k ->
      let j =
        Observe.Json.Obj
          [ (k, Observe.Json.List [ Observe.Json.String k ]) ]
      in
      match Observe.Json.of_string (Observe.Json.to_string j) with
      | Ok j' -> Observe.Json.equal j j'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Stable snapshots are byte-identical across jobs *)

(* Run [f] with a clean root collector and return the canonical stable
   rendering of what it recorded. *)
let stable_snapshot f =
  Observe.Metrics.reset Observe.Metrics.root;
  ignore (f ());
  Observe.Metrics.render_stable Observe.Metrics.root

let assert_jobs_invariant name f =
  let baseline = stable_snapshot (fun () -> f 1) in
  check_bool (name ^ ": baseline records something") true (baseline <> "");
  List.iter
    (fun jobs ->
      check_str
        (Printf.sprintf "%s: jobs=%d = jobs=1" name jobs)
        baseline
        (stable_snapshot (fun () -> f jobs)))
    job_counts

let net2 = Distributed.network_of_ints [ 101; 102 ]

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

let test_sweep_metrics_jobs_invariant () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  assert_jobs_invariant "netquery sweep grid" (fun jobs ->
      Network.Netquery.check ~jobs ~variant:Network.Config.policy_aware
        ~transducer:(Strategies.Absence.transducer comp_edges)
        ~query:comp_edges ~input net2)

let small = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }

let test_checker_metrics_jobs_invariant () =
  (* Both outcomes matter: TC holds (full scans), comp-TC is violated
     (cancelled searches, where the pool must commit exactly the probes
     at indices up to the winning one). *)
  List.iter
    (fun (name, q) ->
      List.iter
        (fun kind ->
          assert_jobs_invariant
            (Printf.sprintf "checker %s/%s" name (Classes.kind_to_string kind))
            (fun jobs -> Checker.check_exhaustive ~bounds:small ~jobs kind q))
        [ Classes.Plain; Classes.Distinct; Classes.Disjoint ])
    [ ("tc", Zoo.tc); ("comp-tc", Zoo.comp_tc); ("q-star-2", Zoo.q_star 2) ]

(* ------------------------------------------------------------------ *)
(* Exporters round-trip *)

let test_chrome_export_valid () =
  let sink = Observe.Sink.create () in
  Observe.Sink.span ~sink ~cat:"net" "net.run" (fun () -> ());
  let events = Observe.Sink.events sink in
  check_bool "recorded 1 event" true (List.length events = 1);
  (* An instant ([dur = None]) renders as "ph":"i". *)
  let instant =
    { (List.hd events) with Observe.Sink.dur = None; name = "net.transition" }
  in
  let doc = Observe.Sink.to_chrome (events @ [ instant ]) in
  match Observe.Json.of_string doc with
  | Error m -> Alcotest.failf "chrome export is not JSON: %s" m
  | Ok j -> (
    match Observe.Schema_check.validate_trace j with
    | Ok () -> ()
    | Error m -> Alcotest.failf "chrome export fails validation: %s" m)

(* The causal trace of one round-robin TC run on two nodes. *)
let tc_trace () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let policy = Network.Policy.hash_fact Graph_gen.schema net2 in
  let tracer = Network.Trace.collector () in
  ignore
    (Network.Run.run ~tracer ~variant:Network.Config.policy_aware ~policy
       ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
       ~input Network.Run.Round_robin);
  Network.Trace.events tracer

let test_trace_stamps () =
  let events = tc_trace () in
  check_bool "trace has events" true (events <> []);
  (* Every event carries a causal stamp. *)
  List.iter
    (fun (ev : Network.Trace.event) ->
      check_bool "lamport >= 1" true (ev.Network.Trace.lamport >= 1);
      check_bool "vector nonempty" true (ev.Network.Trace.vector <> []))
    events

(* ------------------------------------------------------------------ *)
(* Validators: accept the real artifacts, reject tampering *)

let test_validate_metrics () =
  Observe.Metrics.reset Observe.Metrics.root;
  ignore (Checker.check_exhaustive ~bounds:small Classes.Plain Zoo.tc);
  let doc = Observe.Metrics.to_json Observe.Metrics.root in
  (match Observe.Schema_check.validate_metrics doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "real snapshot rejected: %s" m);
  let tamper f =
    match doc with
    | Observe.Json.Obj fields -> Observe.Json.Obj (f fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let wrong_schema =
    tamper
      (List.map (function
        | ("schema", _) -> ("schema", Observe.Json.String "bogus/v9")
        | kv -> kv))
  in
  check_bool "wrong schema tag rejected" true
    (Result.is_error (Observe.Schema_check.validate_metrics wrong_schema));
  let missing_metrics = tamper (List.remove_assoc "metrics") in
  check_bool "missing metrics section rejected" true
    (Result.is_error (Observe.Schema_check.validate_metrics missing_metrics));
  let bad_row =
    tamper
      (List.map (function
        | ("metrics", Observe.Json.List (Observe.Json.Obj row :: rest)) ->
          ( "metrics",
            Observe.Json.List
              (Observe.Json.Obj
                 (List.map
                    (function
                      | ("kind", _) -> ("kind", Observe.Json.String "sketch")
                      | kv -> kv)
                    row)
              :: rest) )
        | kv -> kv))
  in
  check_bool "unknown kind rejected" true
    (Result.is_error (Observe.Schema_check.validate_metrics bad_row))

let test_validate_bench () =
  let open Observe.Json in
  let good =
    Obj
      [
        ("schema", String "calm-bench/v1");
        ("quick", Bool true);
        ("jobs", Int 2);
        ( "experiments",
          List
            [
              Obj
                [
                  ("id", String "E1");
                  ("wall_s", Float 0.25);
                  ("metrics", Obj [ ("monotone.probes", Int 12) ]);
                ];
            ] );
      ]
  in
  (match Observe.Schema_check.validate_bench good with
  | Ok () -> ()
  | Error m -> Alcotest.failf "good bench doc rejected: %s" m);
  let swap key value = function
    | Obj fields ->
      Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
    | j -> j
  in
  check_bool "empty experiments rejected" true
    (Result.is_error
       (Observe.Schema_check.validate_bench (swap "experiments" (List []) good)));
  check_bool "negative wall rejected" true
    (Result.is_error
       (Observe.Schema_check.validate_bench
          (swap "experiments"
             (List
                [
                  Obj
                    [
                      ("id", String "E1");
                      ("wall_s", Float (-1.0));
                      ("metrics", Obj []);
                    ];
                ])
             good)))

let test_validate_causal () =
  let open Observe.Json in
  (* The real exporter's document validates. *)
  let doc = Network.Trace.to_causal_json ~network:net2 (tc_trace ()) in
  let j =
    match of_string doc with
    | Ok j -> j
    | Error m -> Alcotest.failf "causal export is not JSON: %s" m
  in
  (match Observe.Schema_check.validate_causal j with
  | Ok () -> ()
  | Error m -> Alcotest.failf "real causal doc rejected: %s" m);
  let swap key value = function
    | Obj fields ->
      Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
    | j -> j
  in
  let event ?(lamport = 1) ?(vector = Obj [ ("101", Int 1) ])
      ?(origins = List []) () =
    Obj
      [
        ("index", Int 1);
        ("node", String "101");
        ("lamport", Int lamport);
        ("vector", vector);
        ("origins", origins);
        ("delivered", List []);
        ("sent", List [ String "E(1,2)" ]);
        ("output_delta", List []);
      ]
  in
  let rejects name tampered =
    check_bool (name ^ " rejected") true
      (Result.is_error (Observe.Schema_check.validate_causal tampered))
  in
  rejects "wrong schema tag" (swap "schema" (String "bogus/v9") j);
  rejects "empty network" (swap "network" (List []) j);
  rejects "lamport 0" (swap "events" (List [ event ~lamport:0 () ]) j);
  rejects "empty vector" (swap "events" (List [ event ~vector:(Obj []) () ]) j);
  rejects "non-positive vector component"
    (swap "events" (List [ event ~vector:(Obj [ ("101", Int 0) ]) () ]) j);
  rejects "malformed origin pair"
    (swap "events" (List [ event ~origins:(List [ Int 3 ]) () ]) j);
  match Observe.Schema_check.validate_causal (swap "events" (List [ event () ]) j) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well-formed synthetic event rejected: %s" m

let test_validate_traces () =
  let events = tc_trace () in
  let validate = Observe.Schema_check.validate_traces_jsonl in
  let jsonl cells = String.concat "" (List.of_seq (Network.Trace.sweep_jsonl cells)) in
  (match validate (jsonl [ ("a", events); ("b", events) ]) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "real sweep traces rejected: %s" m);
  (* One well-formed event, with and without its cell. *)
  let line cell =
    Printf.sprintf
      {|{%s"index":1,"node":"101","lamport":1,"vector":{"101":1},"origins":[],"delivered":[],"sent":["E(1,2)"],"output_delta":[]}|}
      cell
  in
  (match validate (line {|"cell":"a",|}) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "hand-built line with a cell rejected: %s" m);
  check_bool "line without a cell rejected" true
    (Result.is_error (validate (line "")));
  check_bool "truncated line rejected" true
    (Result.is_error (validate "{\"cell\":\"a\",\"index\":1"))

(* ------------------------------------------------------------------ *)
(* Regression: parallel sweeps carry traces *)

let test_sweep_events_all_jobs () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let policy = Network.Policy.hash_fact Graph_gen.schema net2 in
  let cells =
    [
      ("rr", policy, Network.Run.Round_robin);
      ("random", policy, Network.Run.Random { seed = 1; steps = 40 });
      ("stingy", policy, Network.Run.Stingy { seed = 2; steps = 60 });
    ]
  in
  let sweep jobs =
    Network.Run.sweep ~jobs ~variant:Network.Config.policy_aware
      ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
      ~input cells
  in
  let seq = sweep 1 in
  List.iter
    (fun (label, (r : Network.Run.result), events) ->
      check_bool (label ^ ": cell has events") true (events <> []);
      check_bool (label ^ ": one event per transition") true
        (List.length events = r.Network.Run.transitions))
    seq;
  List.iter
    (fun jobs ->
      let par = sweep jobs in
      check_bool
        (Printf.sprintf "sweep results+events at jobs=%d = jobs=1" jobs)
        true (par = seq))
    job_counts

(* ------------------------------------------------------------------ *)
(* Regression: heartbeat prefixes report the steps they took *)

let test_heartbeat_rounds () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let policy = Network.Policy.hash_fact Graph_gen.schema net2 in
  let r =
    Network.Run.heartbeat_prefix ~variant:Network.Config.policy_aware ~policy
      ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
      ~input ~node:(Value.Int 101) ()
  in
  check_bool "took at least one step" true (r.Network.Run.transitions > 0);
  Alcotest.(check int)
    "rounds = heartbeat steps" r.Network.Run.transitions
    r.Network.Run.rounds;
  check_bool "quiesced" true r.Network.Run.quiesced

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "observe"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip+rejects" `Quick test_json_roundtrip;
          Alcotest.test_case "adversarial bytes" `Quick
            test_json_adversarial_bytes;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_json_string_bytes_roundtrip;
              prop_json_obj_keys_bytes_roundtrip;
            ] );
      ( "determinism-wall",
        [
          Alcotest.test_case "sweep grid metrics" `Quick
            test_sweep_metrics_jobs_invariant;
          Alcotest.test_case "checker zoo metrics" `Slow
            test_checker_metrics_jobs_invariant;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome export validates" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "run-trace causal stamps" `Quick
            test_trace_stamps;
        ] );
      ( "validators",
        [
          Alcotest.test_case "metrics accept/reject" `Quick
            test_validate_metrics;
          Alcotest.test_case "bench accept/reject" `Quick test_validate_bench;
          Alcotest.test_case "causal accept/reject" `Quick
            test_validate_causal;
          Alcotest.test_case "traces accept/reject" `Quick
            test_validate_traces;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "sweep carries traces under jobs" `Quick
            test_sweep_events_all_jobs;
          Alcotest.test_case "heartbeat rounds" `Quick test_heartbeat_rounds;
        ] );
    ]
