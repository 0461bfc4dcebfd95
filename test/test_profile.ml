(* The profiling test wall.

   Pins the introspection layer added with [calm plan] / [calm profile]:
   1. The folded-stack exporter and parser are exact inverses (qcheck),
      and the parser rejects malformed lines.
   2. A real profiled scan produces a calm-profile/v1 document the
      schema validator accepts; tampered documents are rejected; the
      Chrome rendering validates as a trace-event document.
   3. The stable projection of a profile — span paths, visit counts,
      annotations, and the per-rule ANALYZE counters — is byte-identical
      across --jobs 1/2/4, on held and violated (cancelled) scans; and a
      profiled scan changes nothing but the profile (same outcome, same
      stable rows outside profile.* and eval.rule_*, base annotations
      accounting for every probe).
   4. Span trees reconstruct with the recorded nesting, sanitized frame
      names, aggregated visit counts, and coverage fractions in [0,1].
   5. EXPLAIN reports are structurally sane: actual candidates never
      exceed the nested-loop estimate, fired <= valuations, and a pass
      over the fixpoint derives nothing new. *)

open Relational
open Monotone
open Queries

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_str name expected actual = Alcotest.(check string) name expected actual

let small = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }
let job_counts = [ 2; 4 ]

(* Run [f] with profiling enabled on a clean root collector; profiling
   is switched off again even if [f] raises. *)
let profiled f =
  Observe.Metrics.reset Observe.Metrics.root;
  Observe.Profile.enable ();
  Fun.protect ~finally:Observe.Profile.disable f

let scan_profile () =
  profiled (fun () ->
      ignore (Checker.check_exhaustive ~bounds:small Classes.Disjoint Zoo.comp_tc))

(* ------------------------------------------------------------------ *)
(* Folded stacks: qcheck round-trip + reject cases *)

let gen_frame =
  let open QCheck2.Gen in
  (* Characters the span sanitizer already guarantees: anything but the
     separators ';' (stack), ' ' (value field), '/' and newlines. *)
  let safe = [ 'a'; 'b'; 'k'; 'x'; 'z'; '0'; '9'; '_'; '.'; ':'; '-' ] in
  map
    (fun cs -> String.init (List.length cs) (List.nth cs))
    (list_size (int_range 1 8) (oneofl safe))

let gen_stacks =
  let open QCheck2.Gen in
  list_size (int_range 0 12)
    (pair (list_size (int_range 1 5) gen_frame) (int_range 0 1_000_000))

let prop_folded_roundtrip =
  QCheck2.Test.make ~name:"folded_of_spans/of_folded identity" ~count:300
    gen_stacks (fun xs ->
      match Observe.Profile.of_folded (Observe.Profile.folded_of_spans xs) with
      | Ok xs' -> xs = xs'
      | Error _ -> false)

let test_folded_rejects () =
  List.iter
    (fun (label, s) ->
      check_bool (label ^ " rejected") true
        (Result.is_error (Observe.Profile.of_folded s)))
    [
      ("empty middle frame", "a;;b 3\n");
      ("empty leading frame", ";a 3\n");
      ("empty stack", " 3\n");
      ("missing value", "a;b\n");
      ("non-integer value", "a;b many\n");
      ("float value", "a;b 3.5\n");
      ("negative value", "a;b -4\n");
    ];
  (match Observe.Profile.of_folded "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty input should parse to []");
  match Observe.Profile.of_folded "a;b 2\n\nc 0\n" with
  | Ok [ ([ "a"; "b" ], 2); ([ "c" ], 0) ] -> ()
  | _ -> Alcotest.fail "blank interior lines should be skipped"

(* ------------------------------------------------------------------ *)
(* Span trees: shape, sanitization, aggregation, the off switch *)

let test_disabled_is_noop () =
  Observe.Profile.disable ();
  Observe.Metrics.reset Observe.Metrics.root;
  check_bool "disabled by default" false (Observe.Profile.is_enabled ());
  Observe.Profile.span "ghost" (fun () -> Observe.Profile.annot "mark");
  check_bool "no spans recorded while disabled" true
    (Observe.Profile.spans Observe.Metrics.root = []);
  check_str "stable rendering empty" ""
    (Observe.Profile.render_stable Observe.Metrics.root)

let test_span_tree_shape () =
  profiled (fun () ->
      Observe.Profile.span "outer" (fun () ->
          Observe.Profile.annot "mark";
          Observe.Profile.span "inner a/b" (fun () -> ());
          Observe.Profile.span "inner a/b" (fun () -> ()));
      Observe.Profile.span_rooted [ "outer"; "rooted" ] (fun () -> ()));
  let frame n =
    List.nth n.Observe.Profile.path (List.length n.Observe.Profile.path - 1)
  in
  match Observe.Profile.spans Observe.Metrics.root with
  | [ outer ] -> (
    check_str "root frame" "outer" (frame outer);
    check_bool "root visited once (rooted child counts only itself)" true
      (outer.Observe.Profile.count = 1);
    check_bool "annot recorded on the root" true
      (outer.Observe.Profile.annots = [ ("mark", 1) ]);
    match outer.Observe.Profile.children with
    | [ a; b ] ->
      check_str "separators sanitized to _" "inner_a_b" (frame a);
      check_bool "repeat visits aggregate" true (a.Observe.Profile.count = 2);
      check_str "rooted span lands under the same root" "rooted" (frame b);
      List.iter
        (fun n ->
          let c = Observe.Profile.coverage n in
          check_bool "coverage in [0,1]" true (c >= 0. && c <= 1.))
        (Observe.Profile.flatten [ outer ])
    | kids -> Alcotest.failf "expected 2 children, got %d" (List.length kids))
  | _ -> Alcotest.fail "expected a single root span"

(* ------------------------------------------------------------------ *)
(* Validators: accept the real export, reject tampering *)

let test_profile_json_valid () =
  scan_profile ();
  let doc = Observe.Profile.to_json Observe.Metrics.root in
  (match Observe.Schema_check.validate_profile doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "real profile rejected: %s" m);
  let nodes = Observe.Profile.spans Observe.Metrics.root in
  check_bool "the scan recorded spans" true (nodes <> []);
  (* The folded export of the same collector parses back under the
     format's own parser, with plausible values. *)
  (match
     Observe.Profile.of_folded (Observe.Profile.to_folded Observe.Metrics.root)
   with
  | Ok stacks ->
    check_bool "folded export nonempty" true (stacks <> []);
    List.iter
      (fun (frames, v) ->
        check_bool "frames nonempty" true (frames <> []);
        check_bool "self-time (us) nonnegative" true (v >= 0))
      stacks
  | Error m -> Alcotest.failf "folded export does not parse: %s" m);
  List.iter
    (fun n ->
      let c = Observe.Profile.coverage n in
      check_bool "coverage in [0,1]" true (c >= 0. && c <= 1.))
    (Observe.Profile.flatten nodes)

let test_profile_tampering_rejected () =
  scan_profile ();
  let doc = Observe.Profile.to_json Observe.Metrics.root in
  let tamper f =
    match doc with
    | Observe.Json.Obj fields -> Observe.Json.Obj (f fields)
    | _ -> Alcotest.fail "profile doc is not an object"
  in
  let swap_first_span g =
    tamper
      (List.map (function
        | ("spans", Observe.Json.List (Observe.Json.Obj row :: rest)) ->
          ("spans", Observe.Json.List (Observe.Json.Obj (g row) :: rest))
        | kv -> kv))
  in
  let rejects name tampered =
    check_bool (name ^ " rejected") true
      (Result.is_error (Observe.Schema_check.validate_profile tampered))
  in
  rejects "wrong schema tag"
    (tamper
       (List.map (function
         | ("schema", _) -> ("schema", Observe.Json.String "bogus/v9")
         | kv -> kv)));
  rejects "missing spans section" (tamper (List.remove_assoc "spans"));
  rejects "empty path frame"
    (swap_first_span
       (List.map (function
         | ("path", _) -> ("path", Observe.Json.String "scan//base")
         | kv -> kv)));
  rejects "negative count"
    (swap_first_span
       (List.map (function
         | ("count", _) -> ("count", Observe.Json.Int (-1))
         | kv -> kv)));
  rejects "self time exceeding total"
    (swap_first_span
       (List.map (function
         | ("self_s", _) -> ("self_s", Observe.Json.Float 5.0)
         | ("total_s", _) -> ("total_s", Observe.Json.Float 1.0)
         | kv -> kv)));
  rejects "negative annotation"
    (swap_first_span
       (List.map (function
         | ("annots", _) ->
           ( "annots",
             Observe.Json.Obj [ ("cache_hit", Observe.Json.Int (-2)) ] )
         | kv -> kv)))

let test_profile_chrome_valid () =
  scan_profile ();
  let events = Observe.Profile.to_chrome_events Observe.Metrics.root in
  check_bool "chrome events nonempty" true (events <> []);
  match Observe.Json.of_string (Observe.Sink.to_chrome events) with
  | Error m -> Alcotest.failf "chrome render is not JSON: %s" m
  | Ok j -> (
    match Observe.Schema_check.validate_trace j with
    | Ok () -> ()
    | Error m -> Alcotest.failf "chrome render fails trace validation: %s" m)

(* Every child span's drawn interval lies inside its parent's. *)
let check_nested events =
  let interval (e : Observe.Sink.event) =
    match (List.assoc_opt "path" e.args, e.dur) with
    | Some (Observe.Json.String p), Some dur -> (p, (e.ts, e.ts +. dur))
    | _ -> Alcotest.fail "a profile event without a path or a duration"
  in
  let spans = List.map interval events in
  let eps = 1e-9 in
  List.iter
    (fun (p, (start, stop)) ->
      match String.rindex_opt p '/' with
      | None -> ()
      | Some i ->
        let parent = String.sub p 0 i in
        let pstart, pstop = List.assoc parent spans in
        if start < pstart -. eps || stop > pstop +. eps then
          Alcotest.failf "%s [%g, %g] outside %s [%g, %g]" p start stop parent
            pstart pstop)
    spans

(* Children whose totals sum past their parent's, as a span run on two
   pool domains records them: a/x alone outlasts a, and p's children sum
   to 1.5 s of its 1.0 s. *)
let test_chrome_children_inside () =
  let m = Observe.Metrics.create () in
  Observe.Metrics.with_current m (fun () ->
      List.iter
        (fun (path, secs) ->
          Observe.Metrics.observe
            (Observe.Metrics.timing ~labels:[ ("path", path) ] "profile.time")
            secs)
        [
          ("p", 1.0); ("p/a", 0.8); ("p/b", 0.7); ("p/a/x", 0.9);
          ("p/a/y", 0.2); ("p/b/z", 0.1); ("q", 0.5); ("q/w", 0.25);
        ]);
  let events = Observe.Profile.to_chrome_events m in
  check_bool "one event per span" true (List.length events = 8);
  check_nested events;
  (* Children that fit keep their widths. *)
  List.iter
    (fun (name, width) ->
      check_bool (name ^ " unscaled") true
        (List.exists
           (fun (e : Observe.Sink.event) ->
             e.name = name && e.dur = Some width)
           events))
    [ ("z", 0.1); ("w", 0.25); ("q", 0.5) ];
  (* A profiled scan on two domains. *)
  profiled (fun () ->
      ignore
        (Checker.check_exhaustive ~bounds:small ~jobs:2 Classes.Disjoint
           Zoo.comp_tc));
  check_nested (Observe.Profile.to_chrome_events Observe.Metrics.root)

(* ------------------------------------------------------------------ *)
(* Jobs-invariance wall for the stable profile fields *)

let profile_stable kind q jobs =
  profiled (fun () ->
      ignore (Checker.check_exhaustive ~bounds:small ~jobs kind q));
  ( Observe.Profile.render_stable Observe.Metrics.root,
    Observe.Metrics.render_stable Observe.Metrics.root )

let test_profile_jobs_invariant () =
  List.iter
    (fun (name, q, kind) ->
      let base_profile, base_metrics = profile_stable kind q 1 in
      check_bool (name ^ ": profile records spans") true (base_profile <> "");
      List.iter
        (fun jobs ->
          let p, m = profile_stable kind q jobs in
          check_str
            (Printf.sprintf "%s: profile jobs=%d = jobs=1" name jobs)
            base_profile p;
          check_str
            (Printf.sprintf "%s: stable metrics jobs=%d = jobs=1" name jobs)
            base_metrics m)
        job_counts)
    [
      (* held (full scan), violated via witness route, violated with a
         cancelled search — the pool's merge-up-to-winner path. *)
      ("tc/plain", Zoo.tc, Classes.Plain);
      ("comp-tc/disjoint", Zoo.comp_tc, Classes.Disjoint);
      ("comp-tc/distinct", Zoo.comp_tc, Classes.Distinct);
    ]

(* ------------------------------------------------------------------ *)
(* Profiling changes nothing but the profile: the profiled scan is the
   unprofiled one, so its outcome and every stable row the profiler does
   not own are equal, and the base span's annotations count every probe
   (route, empty Q(base), or a base that does not lead its orbit) once
   per group. *)

let outcome_string = function
  | Checker.No_violation { pairs } -> Printf.sprintf "holds on %d pairs" pairs
  | Checker.Violated v -> Format.asprintf "%a" Classes.pp_violation v

let unprofiled_rows () =
  String.split_on_char '\n'
    (Observe.Metrics.render_stable Observe.Metrics.root)
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"profile." l
           || String.starts_with ~prefix:"eval.rule_" l))

let root_count name =
  List.fold_left
    (fun n (r : Observe.Metrics.row) ->
      if r.name = name then n + r.count else n)
    0
    (Observe.Metrics.snapshot Observe.Metrics.root)

let test_profiling_changes_nothing () =
  let program =
    Datalog.Program.query ~name:"comp-tc-prog"
      (Datalog.Program.parse Zoo.comp_tc_program)
  in
  List.iter
    (fun (name, q, kind) ->
      List.iter
        (fun jobs ->
          let at what = Printf.sprintf "%s jobs=%d: %s" name jobs what in
          Observe.Metrics.reset Observe.Metrics.root;
          let plain =
            outcome_string (Checker.check_exhaustive ~bounds:small ~jobs kind q)
          in
          let plain_rows = unprofiled_rows () in
          let profiled =
            profiled (fun () ->
                outcome_string
                  (Checker.check_exhaustive ~bounds:small ~jobs kind q))
          in
          check_str (at "outcome") plain profiled;
          check_bool (at "stable rows outside the profile") true
            (plain_rows = unprofiled_rows ());
          let base_annots =
            match
              List.find_opt
                (fun n -> n.Observe.Profile.path = [ "scan"; "base" ])
                (Observe.Profile.flatten
                   (Observe.Profile.spans Observe.Metrics.root))
            with
            | Some n -> n.Observe.Profile.annots
            | None -> []
          in
          let routed =
            List.fold_left
              (fun acc (k, v) ->
                if
                  List.mem k
                    [ "witness"; "ivm"; "eval"; "empty_before"; "orbit" ]
                then acc + v
                else acc)
              0 base_annots
          in
          Alcotest.(check int)
            (at "base annotations = monotone.probes")
            (root_count "monotone.probes") routed)
        [ 1; 2 ])
    [
      ("tc/plain", Zoo.tc, Classes.Plain);
      ("comp-tc/distinct", Zoo.comp_tc, Classes.Distinct);
      ("comp-tc-prog/disjoint", program, Classes.Disjoint);
    ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN: structural sanity of the plan reports *)

let tc_rules =
  Datalog.Parser.parse_program
    "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z)."

let tc_input =
  List.fold_left
    (fun acc (a, b) ->
      Instance.add (Fact.make "E" [ Value.int a; Value.int b ]) acc)
    Instance.empty
    [ (1, 2); (2, 3); (3, 4) ]

let test_explain_sanity () =
  let db = Datalog.Eval.stratified_exn tc_rules tc_input in
  let reports = Datalog.Eval.explain tc_rules db in
  check_bool "one report per rule" true
    (List.length reports = List.length tc_rules);
  List.iter
    (fun (r : Datalog.Eval.rule_report) ->
      check_bool "every body atom reported" true (r.atom_reports <> []);
      check_bool "fired <= valuations" true (r.fired <= r.valuations);
      check_bool "derived <= fired" true (r.derived <= r.fired);
      check_bool "a pass over the fixpoint derives nothing" true
        (r.derived = 0);
      List.iter
        (fun (a : Datalog.Eval.atom_report) ->
          check_bool "actual candidates <= nested-loop estimate" true
            (a.candidates <= a.est_candidates);
          check_bool "nonnegative tallies" true
            (a.lookups >= 0 && a.extent >= 0 && a.candidates >= 0))
        r.atom_reports)
    reports;
  check_str "rule label format" "T<-T,E"
    (Datalog.Eval.rule_label (List.nth tc_rules 1));
  let rendered = Format.asprintf "%a" Datalog.Eval.pp_explain reports in
  check_bool "renderer mentions the estimate column" true
    (String.length rendered > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "profile"
    [
      ( "folded",
        Alcotest.test_case "reject cases" `Quick test_folded_rejects
        :: List.map QCheck_alcotest.to_alcotest [ prop_folded_roundtrip ] );
      ( "spans",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "tree shape" `Quick test_span_tree_shape;
        ] );
      ( "validators",
        [
          Alcotest.test_case "profile accept" `Quick test_profile_json_valid;
          Alcotest.test_case "profile reject" `Quick
            test_profile_tampering_rejected;
          Alcotest.test_case "chrome render validates" `Quick
            test_profile_chrome_valid;
          Alcotest.test_case "chrome children inside their parent" `Quick
            test_chrome_children_inside;
        ] );
      ( "determinism-wall",
        [
          Alcotest.test_case "profile fields across jobs" `Slow
            test_profile_jobs_invariant;
          Alcotest.test_case "profiling changes nothing but the profile"
            `Quick test_profiling_changes_nothing;
        ] );
      ( "explain",
        [ Alcotest.test_case "report sanity" `Quick test_explain_sanity ] );
    ]
