(* The static-analysis layer: classify ≡ certify wall, independent
   certificate checking, lint diagnostics, and the span-threaded parser.

   The wall mirrors test_parallel's parallel ≡ sequential discipline: for
   every program in the query zoos and for qcheck-random programs, the
   fragment reported by [Fragment.classify] must equal the fragment of
   the certificate built by [Analysis.certify] — and the certificate must
   survive [Analysis.check_certificate], which validates the evidence by
   local inspection without re-running the classifier. *)

open Datalog
module A = Analysis

let zoo_sources =
  [
    ("tc", Queries.Zoo.tc_program);
    ("comp_tc", Queries.Zoo.comp_tc_program);
    ("example_51_p1", Queries.Zoo.example_51_p1);
    ("example_51_p2", Queries.Zoo.example_51_p2);
    ("winmove", Queries.Zoo.winmove_program);
    ("q_clique3", Queries.Zoo.q_clique3_program);
    ("q_star2", Queries.Zoo.q_star2_program);
    ("tagged_edges", Queries.Wilog_zoo.tagged_edges);
    ("sinks_of_sources", Queries.Wilog_zoo.sinks_of_sources);
    ("unsafe_leak", Queries.Wilog_zoo.unsafe_leak);
    ("divergent_counter", Queries.Wilog_zoo.divergent_counter);
  ]

let load src = Adom.augment (Parser.parse_program src)

let agree_on name rules =
  let classified = Fragment.classify rules in
  let cert = A.certify rules in
  Alcotest.(check string)
    (name ^ ": classify = certify")
    (Fragment.to_string classified)
    (Fragment.to_string cert.A.Certificate.fragment);
  match A.check_certificate rules cert with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: certificate rejected: %s" name msg

let test_wall_zoo () =
  List.iter (fun (name, src) -> agree_on name (load src)) zoo_sources

(* Hand-built programs pinning one certificate per Figure-2 fragment, so
   the wall provably exercises every constructor. *)
let fragment_examples =
  [
    (Fragment.Positive, "T(x,y) :- E(x,y). T(x,y) :- T(x,z), E(z,y).");
    (Fragment.Positive_ineq, "O(x,y) :- E(x,y), x != y.");
    (Fragment.Semi_positive, "O(x,y) :- E(x,y), not F(x,y).");
    ( Fragment.Connected_stratified,
      "S(x) :- E(x,x). O(x) :- Adom(x), not S(x)." );
    ( Fragment.Semi_connected_stratified,
      "S(x) :- E(x,x). O(x,y) :- Adom(x), Adom(y), not S(x)." );
    ( Fragment.Stratified,
      "T(x,y) :- E(x,y). NoQ(x) :- Adom(x), T(y,z). O(x) :- Adom(x), not \
       NoQ(x)." );
    (Fragment.Unstratifiable, "Win(x) :- Move(x,y), not Win(y).");
  ]

let test_wall_every_fragment () =
  List.iter
    (fun (expected, src) ->
      let rules = load src in
      let cert = A.certify rules in
      Alcotest.(check string)
        (Fragment.to_string expected ^ ": certified fragment")
        (Fragment.to_string expected)
        (Fragment.to_string cert.A.Certificate.fragment);
      agree_on (Fragment.to_string expected) rules)
    fragment_examples;
  (* ... and that list really is one example per constructor. *)
  Alcotest.(check (list string))
    "every Fragment constructor exercised"
    (List.map Fragment.to_string Fragment.all)
    (List.map (fun (f, _) -> Fragment.to_string f) fragment_examples)

(* Random programs across the whole hierarchy: idb negation and idb/idb
   recursion are allowed, so stratifiable, unstratifiable, connected and
   unconnected shapes all occur. *)
let gen_program =
  Random_program.program ~negatable:[ "A"; "B"; "P"; "Q" ] ~rules:(1, 5) ()

let prop_wall_random =
  QCheck2.Test.make ~name:"classify = certify (random programs)" ~count:300
    gen_program (fun rules ->
      let cert = A.certify rules in
      Fragment.classify rules = cert.A.Certificate.fragment
      &&
      match A.check_certificate rules cert with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "certificate rejected: %s" msg)

(* The checker is not a rubber stamp: tampering with a verified
   certificate must be caught. *)
let test_checker_rejects_tampering () =
  let rules = load "T(x,y) :- E(x,y). T(x,y) :- T(x,z), E(z,y)." in
  let cert = A.certify rules in
  List.iter
    (fun wrong ->
      match
        A.check_certificate rules { cert with A.Certificate.fragment = wrong }
      with
      | Ok () ->
        Alcotest.failf "checker accepted forged fragment %s"
          (Fragment.to_string wrong)
      | Error _ -> ())
    (List.filter (fun f -> f <> cert.A.Certificate.fragment) Fragment.all);
  (* A positive program's certificate claims no exclusions; smuggling the
     certificate of a different program must fail too. *)
  let other = load "O(x,y) :- E(x,y), not F(x,y)." in
  (match A.check_certificate other cert with
  | Ok () -> Alcotest.fail "checker accepted a certificate for another program"
  | Error _ -> ());
  match A.check_certificate rules (A.certify other) with
  | Ok () -> Alcotest.fail "checker accepted another program's certificate"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Fragment table *)

let test_fragment_table () =
  Alcotest.(check int) "seven fragments" 7 (List.length Fragment.all);
  List.iter
    (fun f ->
      let name = Fragment.to_string f in
      Alcotest.(check bool)
        (name ^ ": to_string/of_string roundtrip")
        true
        (Fragment.of_string name = Some f);
      Alcotest.(check bool)
        (name ^ ": upper bound tabulated")
        true
        (List.mem
           (Fragment.monotonicity_upper_bound f)
           [ "M"; "Mdistinct"; "Mdisjoint"; "C" ]))
    Fragment.all;
  Alcotest.(check int)
    "fragment names distinct" 7
    (List.length
       (List.sort_uniq String.compare (List.map Fragment.to_string Fragment.all)))

(* ------------------------------------------------------------------ *)
(* Parser spans and error reporting (satellite 1) *)

let test_syntax_error_column () =
  match Parser.parse_program "O(x :- E(x)." with
  | _ -> Alcotest.fail "expected a syntax error"
  | exception Parser.Syntax_error { line; col; message } ->
    Alcotest.(check int) "line" 1 line;
    Alcotest.(check int) "column" 5 col;
    Alcotest.(check bool)
      "message names the offending token" true
      (String.length message > 0
      &&
      let needle = "found ':-'" in
      let rec has i =
        i + String.length needle <= String.length message
        && (String.sub message i (String.length needle) = needle || has (i + 1))
      in
      has 0)

let test_located_spans () =
  let src = "T(x,y) :- E(x,y).\nO(x,y) :- T(x,y),\n  not E(x,y)." in
  match Parser.parse_program_located src with
  | [ r1; r2 ] ->
    Alcotest.(check string) "rule 1 span" "1:1-18" (Ast.Span.to_string r1.lspan);
    Alcotest.(check string) "rule 2 spans two lines" "2:1-3:14"
      (Ast.Span.to_string r2.lspan);
    Alcotest.(check string) "head span" "2:1-7"
      (Ast.Span.to_string r2.lhead.span);
    Alcotest.(check string) "pos literal span" "2:11-17"
      (Ast.Span.to_string (Ast.pos_span r2 0));
    Alcotest.(check string) "neg literal spans the 'not'" "3:3-13"
      (Ast.Span.to_string (Ast.neg_span r2 0));
    Alcotest.(check bool) "out of range is dummy" true
      (Ast.Span.is_dummy (Ast.neg_span r1 0))
  | _ -> Alcotest.fail "expected two rules"

(* ------------------------------------------------------------------ *)
(* Lint engine *)

let codes_of ds = List.map (fun d -> d.A.Diagnostic.code) ds

let test_lint_clean () =
  let ds = A.Lint.lint_source "T(x,y) :- E(x,y). T(x,y) :- T(x,z), E(z,y)." in
  Alcotest.(check (list string)) "no diagnostics" [] (codes_of ds)

let test_lint_codes_are_registered () =
  (* Over all fixtures the engine emits only registered codes; makes sure
     the registry and the engine cannot drift apart. *)
  List.iter
    (fun (_, src) ->
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (d.A.Diagnostic.code ^ " registered")
            true
            (List.mem_assoc d.A.Diagnostic.code A.Diagnostic.codes))
        (A.Lint.lint_source src))
    (zoo_sources @ List.map (fun (f, s) -> (Fragment.to_string f, s)) fragment_examples)

let test_lint_unsafe_variable () =
  let ds = A.Lint.lint_source "O(x,y) :- E(x)." in
  match ds with
  | [ d ] ->
    Alcotest.(check string) "code" "CALM001" d.A.Diagnostic.code;
    Alcotest.(check string) "span is the head" "1:1-7"
      (Ast.Span.to_string d.A.Diagnostic.span)
  | _ -> Alcotest.failf "expected exactly CALM001, got [%s]"
           (String.concat "; " (codes_of ds))

let test_lint_syntax_error_span () =
  match A.Lint.lint_source "O(x) :- E(x)" with
  | [ d ] ->
    Alcotest.(check string) "code" "CALM000" d.A.Diagnostic.code;
    Alcotest.(check bool) "span is real" false
      (Ast.Span.is_dummy d.A.Diagnostic.span)
  | ds -> Alcotest.failf "expected exactly CALM000, got [%s]"
            (String.concat "; " (codes_of ds))

let test_lint_pragma_claim () =
  let src = "% calm-lint: claim=datalog\nO(x,y) :- E(x,y), not F(x,y).\n" in
  let codes = codes_of (A.Lint.lint_source src) in
  Alcotest.(check bool) "claim violation surfaced" true
    (List.mem "CALM013" codes);
  let ok = "% calm-lint: claim=sp\nO(x,y) :- E(x,y), not F(x,y).\n" in
  Alcotest.(check bool) "satisfied claim silent" false
    (List.mem "CALM013" (codes_of (A.Lint.lint_source ok)))

let test_lint_fixit () =
  let ds = A.Lint.lint_source "T(*,x) :- E(x).\nO(x) :- T(*,x)." in
  let fixits =
    List.concat_map (fun d -> d.A.Diagnostic.fixits) ds
    |> List.map (fun f -> f.A.Diagnostic.replacement)
  in
  Alcotest.(check (list string)) "invention fix-it" [ "T(x)" ] fixits

(* ------------------------------------------------------------------ *)
(* Driver: parallel fan-out is deterministic (jobs-independent) *)

let test_driver_jobs_independent () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "calm_lint_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i (_, src) ->
      let oc = open_out (Filename.concat dir (Printf.sprintf "z%02d.dlog" i)) in
      output_string oc src;
      close_out oc)
    zoo_sources;
  let files =
    match A.Driver.collect [ dir ] with
    | Ok fs -> fs
    | Error (path, msg) -> Alcotest.failf "collect %s: %s" path msg
  in
  Alcotest.(check int) "collect finds the fixtures"
    (List.length zoo_sources) (List.length files);
  let render jobs = A.Driver.render_json (A.Driver.run ~jobs files) in
  Alcotest.(check string) "jobs=4 report = jobs=1 report" (render 1) (render 4)

(* Links under a linted directory end neither the walk nor the run: each
   real directory is walked once, so a cycle [loop -> ..] adds no file,
   a dangling link is skipped, and a dangling [.dlog] link is kept for
   its "cannot read" report. *)
let test_driver_symlinks () =
  let dir = Filename.temp_dir "calm_lint_cycle" "" in
  let sub = Filename.concat dir "sub" in
  Sys.mkdir sub 0o755;
  let a = Filename.concat dir "a.dlog" and b = Filename.concat sub "b.dlog" in
  List.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          output_string oc "T(x) :- E(x)."))
    [ a; b ];
  let loop = Filename.concat sub "loop"
  and dangling = Filename.concat sub "dangling"
  and gone = Filename.concat sub "gone.dlog" in
  Unix.symlink ".." loop;
  Unix.symlink "missing" dangling;
  Unix.symlink "missing.dlog" gone;
  let collected = A.Driver.collect [ dir ] in
  List.iter Sys.remove [ loop; dangling; gone; a; b ];
  List.iter Sys.rmdir [ sub; dir ];
  match collected with
  | Ok files ->
    Alcotest.(check (list string)) "each .dlog file once" [ a; b; gone ] files
  | Error (path, msg) -> Alcotest.failf "collect %s: %s" path msg

(* File names are arbitrary bytes. The JSON report escapes them to pure
   ASCII [\u00XX], one per byte, which [Observe.Json] parses back to the
   same bytes; the SARIF [uri] percent-encodes them, as a URI must. *)
let test_driver_file_name_escaping () =
  let path = "dir\b/x\012y/caf\xc3\xa9.dlog" in
  let source = "O(x) :- E(y)." in
  let reports =
    [ { A.Driver.path; source; diagnostics = A.Lint.lint_source source } ]
  in
  let ( / ) j k = Option.get (Observe.Json.member k j) in
  let first = function
    | Observe.Json.List (x :: _) -> x
    | _ -> Alcotest.fail "expected a nonempty list"
  in
  let check name out file_of expected =
    Alcotest.(check bool) (name ^ " is ASCII") true
      (String.for_all (fun c -> Char.code c < 0x80) out);
    match Observe.Json.of_string out with
    | Error m -> Alcotest.failf "%s is not JSON: %s" name m
    | Ok j ->
      Alcotest.(check bool) (name ^ " file name") true
        (file_of j = Observe.Json.String expected)
  in
  check "json" (A.Driver.render_json reports)
    (fun j -> first (j / "files") / "file")
    path;
  check "sarif" (A.Driver.render_sarif reports)
    (fun j ->
      first (first (first (j / "runs") / "results") / "locations")
      / "physicalLocation" / "artifactLocation" / "uri")
    "dir%08/x%0Cy/caf%C3%A9.dlog"

(* ------------------------------------------------------------------ *)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_wall_random ]

let () =
  Alcotest.run "analysis"
    [
      ( "wall",
        [
          Alcotest.test_case "zoo: classify = certify + checked" `Quick
            test_wall_zoo;
          Alcotest.test_case "one certificate per fragment" `Quick
            test_wall_every_fragment;
          Alcotest.test_case "checker rejects tampering" `Quick
            test_checker_rejects_tampering;
        ] );
      ("fragment-table", [ Alcotest.test_case "table" `Quick test_fragment_table ]);
      ( "parser",
        [
          Alcotest.test_case "column in syntax errors" `Quick
            test_syntax_error_column;
          Alcotest.test_case "located spans" `Quick test_located_spans;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean program" `Quick test_lint_clean;
          Alcotest.test_case "codes registered" `Quick
            test_lint_codes_are_registered;
          Alcotest.test_case "unsafe variable" `Quick test_lint_unsafe_variable;
          Alcotest.test_case "syntax error span" `Quick
            test_lint_syntax_error_span;
          Alcotest.test_case "pragma claim" `Quick test_lint_pragma_claim;
          Alcotest.test_case "invention fix-it" `Quick test_lint_fixit;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs-independent" `Quick
            test_driver_jobs_independent;
          Alcotest.test_case "file name escaping" `Quick
            test_driver_file_name_escaping;
          Alcotest.test_case "symlinks" `Quick test_driver_symlinks;
        ] );
      ("properties", qcheck_cases);
    ]
