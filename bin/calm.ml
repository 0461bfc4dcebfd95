(* calm — command-line driver for the library.

   Subcommands:
     calm eval      evaluate a Datalog¬ program on an input instance
     calm classify  syntactic fragment + CALM level + empirical placement
                    (--profile: span-tree attribution of its scans)
     calm check     monotonicity-class membership with explicit bounds
     calm run       compile and run once on a simulated network: output
                    vs Q(input), heartbeat witness, telemetry record
     calm sweep     the policy × scheduler grid, optionally parallel;
                    every cell's output is checked against Q(input)
     calm explain   provenance of an output fact: its causal cone,
                    replay-validated
     calm detect    empirical coordination detection vs the static claim
     calm explore   model-check every message order on two nodes
     calm validate  schema-check emitted telemetry artifacts
     calm report    bench-trajectory dashboard, and the guarded-row
                    regression gate (--diff)
     calm plan      EXPLAIN ANALYZE of the compiled Joindb plans
     calm graph, figure2, lint, certify

   Programs use the conventional syntax (see lib/datalog/parser.mli);
   facts are given as 'E(1,2). E(2,3)'. *)

open Relational
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument plumbing *)

(* A file that cannot be read or written ends the command with one
   "cannot read|write <path>: <reason>" line and exit 1 ([lint] keeps its
   exit 2). [Sys_error] messages usually, not always, start with the
   path. *)
let io_error ?(code = 1) verb path msg =
  let prefix = path ^ ": " in
  let msg = if String.starts_with ~prefix msg then msg else prefix ^ msg in
  Printf.eprintf "cannot %s %s\n" verb msg;
  exit code

let read_file f =
  try In_channel.with_open_text f In_channel.input_all
  with Sys_error msg -> io_error "read" f msg

(* [lines] is written as it is read, so a long file is never held
   whole. *)
let write_lines f lines =
  try
    Out_channel.with_open_text f (fun oc ->
        Seq.iter (Out_channel.output_string oc) lines)
  with Sys_error msg -> io_error "write" f msg

let write_file f s = write_lines f (Seq.return s)

(* The program source, possibly absent (commands with a --fixture mode
   validate its presence themselves). *)
let program_src_opt_term =
  let program =
    Arg.(
      value
      & opt (some string) None
      & info [ "program"; "p" ] ~docv:"RULES" ~doc:"Program text.")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Program file.")
  in
  let combine program file =
    match (program, file) with
    | Some s, None -> `Ok (Some s)
    | None, Some f -> `Ok (Some (read_file f))
    | None, None -> `Ok None
    | Some _, Some _ -> `Error (false, "give only one of --program, --file")
  in
  Term.(ret (const combine $ program $ file))

let program_src_term =
  let required = function
    | Some s -> `Ok s
    | None -> `Error (false, "one of --program or --file is required")
  in
  Term.(ret (const required $ program_src_opt_term))

let outputs_term =
  Arg.(
    value
    & opt (list string) [ "O" ]
    & info [ "outputs"; "o" ] ~docv:"RELS" ~doc:"Output relations.")

(* Checked when the term is evaluated, so a bad value fails before the
   command does any work. *)
let jobs_term =
  let check jobs =
    if jobs < 1 then begin
      Printf.eprintf "invalid --jobs %d: a pool has at least one worker\n" jobs;
      exit 1
    end;
    jobs
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt int (Parallel.Pool.default_jobs ())
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Worker domains for the membership checker (the empirical \
               placement included), the sweep driver and lint's per-file \
               analysis, at least 1. Defaults to the number of cores; 1 \
               runs them on the calling domain. The model checker always \
               runs on one. Verdicts and certificates are independent of \
               $(docv)."))

let facts_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "facts"; "i" ] ~docv:"FACTS" ~doc:"Input facts, e.g. 'E(1,2). E(2,3)'.")

let facts_file_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "facts-file" ] ~docv:"FILE" ~doc:"File of input facts.")

let default_input schema =
  List.fold_left
    (fun acc (name, ar) ->
      List.fold_left
        (fun acc k ->
          Instance.add
            (Fact.make name (List.init ar (fun i -> Value.Int (k + i))))
            acc)
        acc [ 1; 2; 3 ])
    Instance.empty
    (Schema.relations schema)

(* Malformed facts, and facts whose arity disagrees with the program's
   input schema, end the command with exit 1. *)
let resolve_input schema facts facts_file =
  let invalid fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "invalid facts: %s\n" msg;
        exit 1)
      fmt
  in
  let parse s =
    try Io.parse_facts s with Invalid_argument msg -> invalid "%s" msg
  in
  let input =
    match (facts, facts_file) with
    | Some s, _ -> parse s
    | None, Some f -> parse (read_file f)
    | None, None -> default_input schema
  in
  Instance.iter
    (fun f ->
      match Schema.arity schema (Fact.rel f) with
      | Some k when k <> Fact.arity f ->
        invalid "%s has arity %d, but the program's input relation %s has \
                 arity %d"
          (Fact.to_string f) (Fact.arity f) (Fact.rel f) k
      | _ -> ())
    input;
  input

(* A syntax error or an invalid program ends the command with one line
   and exit 1. *)
let or_program_error f =
  try f () with
  | Datalog.Parser.Syntax_error { line; col; message } ->
    Printf.eprintf "syntax error (line %d, column %d): %s\n" line col message;
    exit 1
  | Invalid_argument msg ->
    Printf.eprintf "invalid program: %s\n" msg;
    exit 1

(* The Adom-augmented rules pick the semantics: stratified when they
   stratify, well-founded otherwise (win-move!). For a stratifiable
   program the two agree. *)
let load_program ~outputs src =
  or_program_error @@ fun () ->
  let rules = Datalog.Adom.augment (Datalog.Parser.parse_program src) in
  let semantics =
    if Datalog.Stratify.is_stratifiable rules then Datalog.Program.Stratified
    else begin
      Printf.eprintf "(not stratifiable; using well-founded semantics)\n";
      Datalog.Program.Well_founded
    end
  in
  Datalog.Program.make ~outputs ~semantics rules

(* ------------------------------------------------------------------ *)
(* Observability plumbing: --record / --profile / --redact-timings.

   The wrapper resets the root collector, runs the command body, and
   then prints or writes what was asked for. --record DIR arms every
   recorder (span profiler, series) and writes the fixed file set below
   into DIR; commands add their own files with {!record_files}. Stable
   metrics are jobs-independent (see lib/observe/metrics.mli);
   --redact-timings makes --profile output reproducible too. No command
   prints a timing of its own: durations are --profile spans, so without
   --profile stdout is a function of the inputs. *)

let record_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"DIR"
        ~doc:
          "Arm every recorder and write the command's record into $(docv) \
           (created if missing; files are overwritten): metrics.json \
           (calm-metrics/v1), profile.json (calm-profile/v1), \
           profile.folded (folded stacks, self-time in µs), series.jsonl \
           (calm-series/v1) and trace.json (Chrome trace_event: the span \
           tree as a flame chart). Stable metrics, series, span counts \
           and trace.json up to its timings are independent of \
           $(b,--jobs).")

(* The directory exists before the command runs, so a bad path fails
   before any work. *)
let make_record_dir dir =
  match Sys.is_directory dir with
  | true -> ()
  | false -> io_error "write" dir "Not a directory"
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755 with Sys_error msg -> io_error "write" dir msg)

type obs = {
  record : string option;
  profile : bool;
  redact_timings : bool;
}

(* Write the [(name, contents)] files into the record directory, if
   any; [files] is only called when recording. *)
let record_files obs files =
  Option.iter
    (fun dir ->
      List.iter
        (fun (name, contents) -> write_file (Filename.concat dir name) contents)
        (files ()))
    obs.record

let obs_term =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable span profiling and print a human-readable metrics \
             profile plus the attribution span tree to stdout at exit.")
  in
  let redact_timings =
    Arg.(
      value & flag
      & info [ "redact-timings" ]
          ~doc:
            "In $(b,--profile) output, replace the schedule-dependent \
             numbers (durations) with '-' so the profile is \
             byte-reproducible at every $(b,--jobs).")
  in
  let mk record profile redact_timings = { record; profile; redact_timings } in
  Term.(const mk $ record_term $ profile $ redact_timings)

let with_observability obs f =
  Option.iter make_record_dir obs.record;
  let recording = obs.record <> None in
  Observe.Metrics.reset Observe.Metrics.root;
  if recording then begin
    Observe.Series.reset Observe.Series.root;
    Observe.Series.enable ()
  end;
  if recording || obs.profile then Observe.Profile.enable ();
  let finish () =
    Observe.Profile.disable ();
    Observe.Series.disable ();
    let root = Observe.Metrics.root in
    let json j = Observe.Json.to_string_pretty j ^ "\n" in
    record_files obs (fun () ->
        [
          ("metrics.json", json (Observe.Metrics.to_json root));
          ("profile.json", json (Observe.Profile.to_json root));
          ("profile.folded", Observe.Profile.to_folded root);
          ("series.jsonl", Observe.Series.to_jsonl Observe.Series.root);
          ( "trace.json",
            Observe.Sink.to_chrome (Observe.Profile.to_chrome_events root) );
        ]);
    if obs.profile then begin
      Format.printf "%a@?"
        (Observe.Metrics.pp_profile ~redact_timings:obs.redact_timings)
        root;
      Format.printf "%a@?"
        (Observe.Profile.pp ~redact_timings:obs.redact_timings)
        root
    end
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* calm eval *)

let eval_cmd =
  let run src outputs facts facts_file =
    let program = load_program ~outputs src in
    let input = resolve_input (Datalog.Program.input_schema program) facts facts_file in
    let out = Datalog.Program.run program input in
    Printf.printf "input  (%d facts): %s\n" (Instance.cardinal input)
      (Instance.to_string input);
    Printf.printf "output (%d facts): %s\n" (Instance.cardinal out)
      (Instance.to_string out)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"evaluate a Datalog¬ program on an input instance")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term)

(* ------------------------------------------------------------------ *)
(* calm classify *)

(* Each bound is checked when the term is evaluated, as [jobs_term] is:
   below 1 the scan has no pairs, or only ones that cannot violate, and
   its verdict would be vacuous. *)
let bounds_term =
  let bound long default doc reason =
    let check n =
      if n < 1 then begin
        Printf.eprintf "invalid --%s %d: %s\n" long n reason;
        exit 1
      end;
      n
    in
    Term.(
      const check
      $ Arg.(value & opt int default & info [ long ] ~docv:"N" ~doc))
  in
  let mk dom_size fresh max_base max_ext =
    { Monotone.Checker.dom_size; fresh; max_base; max_ext }
  in
  let d = Monotone.Checker.default_bounds in
  Term.(
    const mk
    $ bound "dom" d.dom_size "Base-domain size for checks, at least 1."
        "a base domain has at least one value"
    $ bound "fresh" d.fresh "Fresh values, at least 1."
        "an extension has at least one fresh value"
    $ bound "max-base" d.max_base "Max base facts, at least 1."
        "a base has at least one fact"
    $ bound "max-ext" d.max_ext "Max extension facts, at least 1."
        "an extension has at least one fact")

(* The one placement line ({!Calm_core.Hierarchy.pp_placement}). *)
let print_placement level source =
  Format.printf "%a@." Calm_core.Hierarchy.pp_placement (level, source)

let classify_cmd =
  let run src outputs bounds jobs obs =
    with_observability obs @@ fun () ->
    let program = load_program ~outputs src in
    let fragment = Datalog.Program.fragment program in
    Printf.printf "fragment:        %s\n" (Datalog.Fragment.to_string fragment);
    Printf.printf "connectivity:    %s\n"
      (Datalog.Connectivity.explain program.Datalog.Program.rules);
    let syntactic = Calm_core.Hierarchy.of_fragment fragment in
    Printf.printf "syntactic level: %s (class %s; model %s; fragment %s)\n"
      (Calm_core.Hierarchy.to_string syntactic)
      (Calm_core.Hierarchy.monotonicity_class syntactic)
      (Calm_core.Hierarchy.transducer_model syntactic)
      (Calm_core.Hierarchy.datalog_fragment syntactic);
    let q = Datalog.Program.query ~name:"program" program in
    let empirical = Calm_core.Hierarchy.place_empirically ~bounds ~jobs q in
    print_placement empirical (Calm_core.Hierarchy.Bounded bounds);
    (* Timings are schedule-dependent, so redacted output leaves this
       line out. *)
    if Observe.Profile.is_enabled () && not obs.redact_timings then
      Option.iter
        (fun scan ->
          Printf.printf
            "attribution: %.1f%% of the %.3fs scan wall time is attributed \
             to named (base, stage, rule) spans\n"
            (100. *. Observe.Profile.coverage scan)
            scan.Observe.Profile.total_s)
        (List.find_opt
           (fun n -> n.Observe.Profile.path = [ "scan" ])
           (Observe.Profile.spans Observe.Metrics.root));
    let points = Datalog.Points_of_order.analyze program.Datalog.Program.rules in
    Printf.printf "points of order: %d — %s\n" (List.length points)
      (Datalog.Points_of_order.coordination_level program.Datalog.Program.rules);
    List.iter
      (fun pt -> Format.printf "  %a@." Datalog.Points_of_order.pp_point pt)
      points
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "place a program in the refined CALM hierarchy: its syntactic \
          level and the bounded scans' level (plain, then distinct, then \
          disjoint, up to the first class that holds); --profile prints \
          the scans' attribution tree (scan → base → qbase/stage → \
          fixpoint → rule, each base annotated with its cache-hit / route \
          / empty-before probe counts), and \
          --record writes it as profile.json, profile.folded and the \
          profile track of trace.json")
    Term.(
      const run $ program_src_term $ outputs_term $ bounds_term $ jobs_term
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* calm check *)

let check_cmd =
  let kind_term =
    Arg.(
      value
      & opt
          (enum
             [
               ("plain", Monotone.Classes.Plain);
               ("distinct", Monotone.Classes.Distinct);
               ("disjoint", Monotone.Classes.Disjoint);
             ])
          Monotone.Classes.Plain
      & info [ "class" ] ~docv:"KIND" ~doc:"plain, distinct, or disjoint.")
  in
  let run src outputs kind bounds jobs obs =
    (* Compute the exit code inside the wrapper and [exit] after it, so
       a violated check still writes its record. *)
    let code =
      with_observability obs @@ fun () ->
      let program = load_program ~outputs src in
      let q = Datalog.Program.query ~name:"program" program in
      match Monotone.Checker.check_exhaustive ~bounds ~jobs kind q with
      | Monotone.Checker.No_violation { pairs } ->
        Printf.printf
          "%s-monotonicity holds on all %d admissible pairs within bounds\n"
          (Monotone.Classes.kind_to_string kind)
          pairs;
        0
      | Monotone.Checker.Violated v ->
        Format.printf "%a@." Monotone.Classes.pp_violation v;
        2
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"bounded-exhaustive monotonicity-class membership check")
    Term.(
      const run $ program_src_term $ outputs_term $ kind_term $ bounds_term
      $ jobs_term $ obs_term)

(* ------------------------------------------------------------------ *)
(* Shared network-command plumbing *)

(* What run, sweep, explain, detect and explore start from. A program
   that stays Beyond compiles to the coordinated barrier strategy. The
   commands with --jobs (sweep, detect, explore) pass it on to the
   empirical placement of a program outside the syntactic fragments.
   Each command prints the placement line once its inputs are valid. *)
type setup = {
  input : Instance.t;
  compiled : Calm_core.Compile.compiled;
  network : Distributed.network;
}

let setup ?jobs ~outputs ~nodes src facts facts_file =
  if nodes < 1 then begin
    Printf.eprintf "invalid --nodes %d: a network has at least one node\n"
      nodes;
    exit 1
  end;
  let program = load_program ~outputs src in
  let input =
    resolve_input (Datalog.Program.input_schema program) facts facts_file
  in
  {
    input;
    compiled = Calm_core.Compile.compile_program ?jobs program;
    network = Distributed.network_of_ints (List.init nodes (fun i -> 1 + i));
  }

let print_compiled c =
  print_placement c.Calm_core.Compile.level c.Calm_core.Compile.source

let default_policy_for compiled network =
  let schema = compiled.Calm_core.Compile.query.Query.input in
  if compiled.Calm_core.Compile.domain_guided_only then
    Network.Policy.hash_value schema network
  else Network.Policy.hash_fact schema network

let nodes_term =
  Arg.(value & opt int 3 & info [ "nodes"; "n" ] ~doc:"Network size.")

let scheduler_of nodes seed = function
  | `Rr -> Network.Run.Round_robin
  | `Rand -> Network.Run.Random { seed; steps = 50 * nodes }
  | `Stingy -> Network.Run.Stingy { seed; steps = 80 * nodes }
  | `Adv -> Network.Run.Adversarial { steps = 50 * nodes }

let scheduler_enum =
  Arg.enum
    [
      ("round-robin", `Rr);
      ("random", `Rand);
      ("stingy", `Stingy);
      ("adversarial", `Adv);
    ]

let scheduler_term =
  Arg.(
    value
    & opt scheduler_enum `Rr
    & info [ "scheduler"; "s" ] ~docv:"SCHED"
        ~doc:"round-robin, random, stingy, or adversarial.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.")

let faults_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Wrap the scheduler(s) in a fault plan: semicolon-separated \
           clauses seed=S, dup=PxK, loss=P:D, horizon=H, crash=N@R, \
           part=G1|G2@R+D (e.g. \
           'seed=7;dup=0.4x3;loss=0.25:2;crash=2@4;part=1|2,3@2+3'), \
           or 'default' for a representative all-faults plan. Runs \
           under a plan are deterministic from the seed; quiescence \
           additionally requires every fault to have struck and healed.")

(* A plan is checked against the network it will run on: a crash or a
   partition member outside it is a typed error, not a run that never
   quiesces. *)
let faults_of_flag ~network flag =
  let plan =
    match flag with
    | None -> None
    | Some "default" -> Some Network.Fault.default
    | Some s -> (
      match Network.Fault.of_string s with
      | Ok plan -> Some plan
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)
  in
  Option.iter
    (fun plan ->
      match Network.Fault.check plan ~network with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "invalid faults: %s\n" msg;
        exit 1)
    plan;
  plan

(* ------------------------------------------------------------------ *)
(* calm run *)

let run_cmd =
  let run src outputs facts facts_file nodes scheduler seed faults obs =
    (* The exit code leaves the wrapper first, so a run whose output
       differs from Q(input) still writes its record. *)
    let code =
      with_observability obs @@ fun () ->
      let { input; compiled; network } =
        setup ~outputs ~nodes src facts facts_file
      in
      let faults = faults_of_flag ~network faults in
      print_compiled compiled;
      let policy = default_policy_for compiled network in
      let sched = scheduler_of nodes seed scheduler in
      let tracer =
        Option.map (fun _ -> Network.Trace.collector ()) obs.record
      in
      let result =
        Network.Run.run ?tracer ?faults
          ~variant:compiled.Calm_core.Compile.variant ~policy
          ~transducer:compiled.Calm_core.Compile.transducer ~input sched
      in
      Printf.printf
        "policy=%s scheduler=%s quiesced=%b rounds=%d transitions=%d \
         messages=%d deliveries=%d\n"
        (Network.Policy.name policy)
        (Network.Run.scheduler_label ?faults sched)
        result.Network.Run.quiesced result.Network.Run.rounds
        result.Network.Run.transitions result.Network.Run.messages_sent
        result.Network.Run.deliveries;
      Printf.printf "output (%d facts): %s\n"
        (Instance.cardinal result.Network.Run.outputs)
        (Instance.to_string result.Network.Run.outputs);
      (* Q(input) and the witness search record into a throwaway
         collector, so the telemetry artifacts describe the run alone. *)
      let correct =
        Observe.Metrics.silenced (fun () ->
            let query = compiled.Calm_core.Compile.query in
            let correct =
              Instance.equal result.Network.Run.outputs
                (Query.apply query input)
            in
            Printf.printf "distributed output matches centralized: %b\n"
              correct;
            (match
               Network.Coordination.heartbeat_witness
                 ~variant:compiled.Calm_core.Compile.variant
                 ~transducer:compiled.Calm_core.Compile.transducer ~query
                 ~input network
             with
            | Some w ->
              Printf.printf
                "coordination-freeness witness: node %s, %d heartbeats, 0 \
                 messages read\n"
                (Value.to_string w.Network.Coordination.node)
                w.Network.Coordination.result.Network.Run.transitions
            | None -> print_endline "no heartbeat witness found");
            correct)
      in
      Option.iter
        (fun t ->
          let events = Network.Trace.events t in
          record_files obs (fun () ->
              [
                ("causal.json", Network.Trace.to_causal_json ~network events);
                ("hb.dot", Network.Trace.to_dot events);
                ( "causal-chrome.json",
                  Network.Trace.to_chrome_causal ~network events );
              ]))
        tracer;
      if correct then 0 else 2
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "compile a program and run it once on a simulated network; \
          report whether the output equals Q(input) (exit 2 when it does \
          not) and search for a heartbeat-only coordination-freeness \
          witness (instrumented; \
          --record adds the causal trace as causal.json (calm-causal/v1), \
          hb.dot (the happens-before DAG) and causal-chrome.json (one \
          Chrome track per node))")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ scheduler_term $ seed_term
      $ faults_term $ obs_term)

(* ------------------------------------------------------------------ *)
(* calm sweep *)

let sweep_cmd =
  let run src outputs facts facts_file nodes jobs faults obs =
    (* The exit code leaves the wrapper first, so an inconsistent sweep
       still writes its record. *)
    let code =
      with_observability obs @@ fun () ->
      let { input; compiled; network } =
        setup ~jobs ~outputs ~nodes src facts facts_file
      in
      let query = compiled.Calm_core.Compile.query in
      let policies =
        Network.Netquery.default_policies
          ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
          query.Query.input network
      in
      let faults = faults_of_flag ~network faults in
      print_compiled compiled;
      let cells =
        Network.Netquery.grid policies Network.Netquery.default_schedulers
      in
      let results =
        Network.Run.sweep ~jobs ?faults
          ~variant:compiled.Calm_core.Compile.variant
          ~transducer:compiled.Calm_core.Compile.transducer ~input cells
      in
      List.iter
        (fun (label, r, events) ->
          Printf.printf
            "%-28s quiesced=%b rounds=%d transitions=%d messages=%d \
             outputs=%d events=%d\n"
            label r.Network.Run.quiesced r.Network.Run.rounds
            r.Network.Run.transitions r.Network.Run.messages_sent
            (Instance.cardinal r.Network.Run.outputs)
            (List.length events))
        results;
      Option.iter
        (fun dir ->
          write_lines
            (Filename.concat dir "traces.jsonl")
            (Network.Trace.sweep_jsonl
               (List.map (fun (label, _, events) -> (label, events)) results)))
        obs.record;
      let expected =
        Observe.Metrics.silenced (fun () -> Query.apply query input)
      in
      let verdict = Network.Netquery.judge ~expected results in
      if Network.Netquery.consistent verdict then 0
      else begin
        Printf.printf "expected (%d facts): %s\n" (Instance.cardinal expected)
          (Instance.to_string expected);
        List.iter
          (fun (label, r) ->
            if
              (not r.Network.Run.quiesced)
              || List.mem label verdict.Network.Netquery.mismatches
            then Printf.printf "  mismatch: %s\n" label)
          verdict.Network.Netquery.runs;
        print_endline "verdict: INCONSISTENT";
        2
      end
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "run the full policy × scheduler grid for a program, optionally \
          in parallel (and optionally under a --faults plan), and check \
          that every cell quiesces with output Q(input) (exit 2 \
          otherwise); --record adds every cell's causal trace as \
          traces.jsonl, and its bytes and the stable metrics are \
          identical under any --jobs")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ jobs_term $ faults_term $ obs_term)

(* ------------------------------------------------------------------ *)
(* calm explain *)

let parse_fact s =
  try Fact.of_string s
  with Invalid_argument msg | Failure msg ->
    Printf.eprintf "bad fact %S: %s\n" s msg;
    exit 1

let explain_cmd =
  let fact_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "fact" ] ~docv:"FACT"
          ~doc:
            "The output fact to explain, e.g. 'T(1,3)'. Defaults to every \
             output fact of the run.")
  in
  let run src outputs facts facts_file nodes scheduler seed faults fact =
    let { input; compiled; network } =
      setup ~outputs ~nodes src facts facts_file
    in
    let policy = default_policy_for compiled network in
    let faults = faults_of_flag ~network faults in
    print_compiled compiled;
    let sched = scheduler_of nodes seed scheduler in
    let tracer = Network.Trace.collector () in
    let result =
      Network.Run.run ~tracer ?faults
        ~variant:compiled.Calm_core.Compile.variant ~policy
        ~transducer:compiled.Calm_core.Compile.transducer ~input sched
    in
    let events = Network.Trace.events tracer in
    Printf.printf "policy=%s quiesced=%b transitions=%d\n"
      (Network.Policy.name policy) result.Network.Run.quiesced
      result.Network.Run.transitions;
    let targets =
      match fact with
      | Some s -> [ parse_fact s ]
      | None -> Instance.to_list result.Network.Run.outputs
    in
    if targets = [] then begin
      Printf.eprintf "the run produced no output facts to explain\n";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun target ->
        match Network.Provenance.cone_of events target with
        | None ->
          Printf.eprintf "%s: not among the run's outputs\n"
            (Fact.to_string target);
          failed := true
        | Some cone ->
          Format.printf "%a@." Network.Provenance.pp cone;
          Printf.printf "  heard-from-all-nodes cut: %b\n"
            (Network.Provenance.heard_from_all ~network cone);
          (match
             Network.Provenance.validate
               ~variant:compiled.Calm_core.Compile.variant ~policy
               ~transducer:compiled.Calm_core.Compile.transducer ~input cone
           with
          | Ok () ->
            Printf.printf "  replay: the cone alone reproduces the fact \
                           (validated)\n"
          | Error msg ->
            Printf.printf "  replay: FAILED — %s\n" msg;
            failed := true))
      targets;
    if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "provenance of an output fact as its minimal causal cone — the \
          anchor transition plus its happens-before past — validated by \
          replaying just the cone (faulty runs replay too: their traces \
          carry the dup/restart annotations)")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ scheduler_term $ seed_term
      $ faults_term $ fact_term)

(* ------------------------------------------------------------------ *)
(* calm detect *)

let detect_cmd =
  let scatter_term =
    Arg.(
      value & flag
      & info [ "scatter" ]
          ~doc:
            "Append the value-scattering domain-guided policy to the \
             battery — the 'bad' placement that spreads connected data \
             across the whole network (win-move coordinates under it).")
  in
  let fixture_term =
    Arg.(
      value
      & opt (some (enum [ ("forced-disagree", `Forced) ])) None
      & info [ "fixture" ] ~docv:"NAME"
          ~doc:
            "Run a built-in detector fixture instead of a program. \
             'forced-disagree' is engineered so the static and empirical \
             verdicts disagree in every run (a non-monotone query \
             compiled at the wrong Monotone level, with the \
             counterexample split away from the early-outputting node): \
             the command must exit 2. Composes with $(b,--faults).")
  in
  let finish entry =
    Format.printf "%a@." Calm_core.Empirical.pp_entry entry;
    if not entry.Calm_core.Empirical.agree then
      print_endline
        "verdict: observed coordination behaviour DISAGREES with the \
         static claim";
    exit (Calm_core.Empirical.exit_code entry)
  in
  let run src outputs facts facts_file nodes jobs scatter fixture faults =
    match fixture with
    | Some `Forced ->
      let faults =
        faults_of_flag ~network:Calm_core.Empirical.default_network faults
      in
      finish (Calm_core.Empirical.forced_disagree ~jobs ?faults ())
    | None ->
      let src =
        match src with
        | Some s -> s
        | None ->
          Printf.eprintf
            "one of --program, --file or --fixture is required\n";
          exit 1
      in
      let { input; compiled; network } =
        setup ~jobs ~outputs ~nodes src facts facts_file
      in
      let faults = faults_of_flag ~network faults in
      print_compiled compiled;
      let schema = compiled.Calm_core.Compile.query.Query.input in
      let policies =
        let base =
          Network.Netquery.default_policies
            ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
            schema network
        in
        if scatter then
          base @ [ Calm_core.Empirical.scatter_policy schema network ]
        else base
      in
      finish
        (Calm_core.Empirical.detect_compiled ~network ~policies ?faults ~jobs
           ~name:"program" ~compiled ~input ())
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "empirical coordination detection: run the policy × scheduler \
          battery with causal tracing and check whether some correct \
          quiescent run avoids a heard-from-all-nodes cut, then compare \
          against the static CALM placement (exit 0 on agreement, 2 on \
          disagreement, which includes a wrong output under a \
          coordination-free level; see --faults and --fixture)")
    Term.(
      const run $ program_src_opt_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ jobs_term $ scatter_term
      $ fixture_term $ faults_term)

(* ------------------------------------------------------------------ *)
(* calm validate *)

(* Parse a JSON artifact and check it against its schema. *)
let parse_validated validate contents =
  match Observe.Json.of_string contents with
  | Error m -> Error ("not valid JSON: " ^ m)
  | Ok j -> Result.map (fun () -> j) (validate j)

let validate_cmd =
  let kind_term =
    Arg.(
      required
      & opt
          (some
             (enum
                [
                  ("metrics", `Metrics); ("bench", `Bench);
                  ("trace", `Trace); ("causal", `Causal);
                  ("profile", `Profile); ("series", `Series);
                  ("traces", `Traces);
                ]))
          None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Artifact kind: metrics, bench, trace, causal, profile, \
             series, or traces.")
  in
  let file_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"The JSON artifact to validate.")
  in
  let run kind file =
    let contents = read_file file in
    let json validate = Result.map ignore (parse_validated validate contents) in
    let result =
      match kind with
      | `Series -> Observe.Schema_check.validate_series_jsonl contents
      | `Traces -> Observe.Schema_check.validate_traces_jsonl contents
      | `Metrics -> json Observe.Schema_check.validate_metrics
      | `Bench -> json Observe.Schema_check.validate_bench
      | `Trace -> json Observe.Schema_check.validate_trace
      | `Causal -> json Observe.Schema_check.validate_causal
      | `Profile -> json Observe.Schema_check.validate_profile
    in
    match result with
    | Ok () ->
      Printf.printf "%s: valid %s artifact\n" file
        (match kind with
        | `Metrics -> "calm-metrics/v1"
        | `Bench -> "calm-bench/v1"
        | `Trace -> "trace"
        | `Causal -> "calm-causal/v1"
        | `Profile -> "calm-profile/v1"
        | `Series -> "calm-series/v1"
        | `Traces -> "traces")
    | Error m ->
      Printf.eprintf "%s: INVALID: %s\n" file m;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "validate a telemetry artifact (a file of a --record directory, \
          or a bench --json trajectory) against its schema")
    Term.(const run $ kind_term $ file_term)

(* ------------------------------------------------------------------ *)
(* calm plan *)

let plan_cmd =
  let run src outputs facts facts_file =
    let program = load_program ~outputs src in
    let input =
      resolve_input (Datalog.Program.input_schema program) facts facts_file
    in
    let rules = program.Datalog.Program.rules in
    (* EXPLAIN against the fixpoint, so estimated-vs-actual counts
       reflect the plans under their real extents, recursion included. *)
    let db =
      match program.Datalog.Program.semantics with
      | Datalog.Program.Stratified -> Datalog.Eval.stratified_exn rules input
      | Datalog.Program.Well_founded ->
        (Datalog.Wellfounded.eval rules input).Datalog.Wellfounded.true_facts
    in
    Printf.printf "rules=%d input-facts=%d fixpoint-facts=%d\n"
      (List.length rules) (Instance.cardinal input) (Instance.cardinal db);
    Format.printf "%a@?" Datalog.Eval.pp_explain (Datalog.Eval.explain rules db)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "EXPLAIN ANALYZE the compiled Joindb plans: per-atom index choice \
          (hashed positions, bind/check slots) with estimated vs actual \
          candidate counts from one instrumented pass over the fixpoint")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term)

(* ------------------------------------------------------------------ *)
(* calm graph *)

let graph_cmd =
  let run src outputs =
    let program = load_program ~outputs src in
    print_endline (Datalog.Depgraph.to_dot program.Datalog.Program.rules)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"print the predicate dependency graph as graphviz DOT")
    Term.(const run $ program_src_term $ outputs_term)

(* ------------------------------------------------------------------ *)
(* calm figure2 *)

let figure2_cmd =
  let run () = print_string (Calm_core.Figure2.render ()) in
  Cmd.v
    (Cmd.info "figure2"
       ~doc:"print the paper's results figure with experiment evidence")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* calm explore *)

let explore_cmd =
  (* Checked when the term is evaluated, as [jobs_term] is. *)
  let budget_term =
    let check budget =
      if budget < 1 then begin
        Printf.eprintf
          "invalid --budget %d: a budget is at least one configuration\n"
          budget;
        exit 1
      end;
      budget
    in
    Term.(
      const check
      $ Arg.(
          value & opt int 20_000
          & info [ "budget" ] ~docv:"N"
              ~doc:"Maximum configurations to explore, at least 1."))
  in
  let run src outputs facts facts_file budget jobs =
    let { input; compiled; network } =
      setup ~jobs ~outputs ~nodes:2 src facts facts_file
    in
    let policy = default_policy_for compiled network in
    print_compiled compiled;
    Printf.printf
      "model-checking every message order on a 2-node network (budget %d)...\n"
      budget;
    let verdict =
      Network.Explore.check ~max_configs:budget
        ~variant:compiled.Calm_core.Compile.variant ~policy
        ~transducer:compiled.Calm_core.Compile.transducer
        ~query:compiled.Calm_core.Compile.query ~input ()
    in
    print_endline (Network.Explore.verdict_to_string verdict);
    match verdict with
    | Network.Explore.Wrong_output _ | Network.Explore.Stuck _ -> exit 2
    | Network.Explore.Consistent _ | Network.Explore.Out_of_budget _ -> ()
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "exhaustively verify the compiled strategy under every message \
          order (tiny inputs); exit 2 when some run outputs a wrong fact \
          or quiesces short of Q(input)")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ budget_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* calm lint *)

let lint_cmd =
  let paths_term =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Files or directories; directories are searched recursively \
                for $(b,.dlog) files.")
  in
  let format_term =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json); ("sarif", `Sarif) ])
          `Human
      & info [ "format" ] ~docv:"FMT" ~doc:"human, json, or sarif.")
  in
  let output_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "output" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  let claim_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "claim" ] ~docv:"FRAG"
          ~doc:
            "Claimed fragment: datalog, ineq, sp, con, semicon, or \
             stratified. Violations become errors.")
  in
  let edb_term =
    Arg.(
      value
      & opt (list string) []
      & info [ "edb" ] ~docv:"RELS" ~doc:"Predicates declared extensional.")
  in
  let lint_outputs_term =
    Arg.(
      value
      & opt (list string) []
      & info [ "outputs"; "o" ] ~docv:"RELS"
          ~doc:"Output relations (enables the unused-predicate check).")
  in
  let run paths format output claim edb outputs jobs =
    let claim =
      match claim with
      | None -> None
      | Some s -> (
        match Analysis.Lint.claim_of_string s with
        | Some _ as c -> c
        | None ->
          Printf.eprintf "unknown fragment claim: %s\n" s;
          exit 2)
    in
    let options = { Analysis.Lint.claim; edb; outputs } in
    match Analysis.Driver.collect paths with
    | Error (path, msg) -> io_error ~code:2 "read" path msg
    | Ok [] ->
      Printf.eprintf "calm lint: no .dlog files found\n";
      exit 2
    | Ok files ->
      let reports = Analysis.Driver.run ~options ~jobs files in
      let rendered =
        match format with
        | `Human -> Analysis.Driver.render_human reports
        | `Json -> Analysis.Driver.render_json reports
        | `Sarif -> Analysis.Driver.render_sarif reports
      in
      (match output with
      | None -> print_string rendered
      | Some f -> write_file f rendered);
      if Analysis.Driver.total Analysis.Diagnostic.Error reports > 0 then
        exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "report span-accurate diagnostics (CALM000-CALM013) for Datalog¬ \
          sources")
    Term.(
      const run $ paths_term $ format_term $ output_term $ claim_term
      $ edb_term $ lint_outputs_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* calm certify *)

let certify_cmd =
  let run src =
    let rules =
      or_program_error (fun () ->
          Datalog.Adom.augment (Datalog.Parser.parse_program src))
    in
    let cert = Analysis.certify rules in
    print_string (Analysis.Certificate.to_string cert);
    match Analysis.check_certificate rules cert with
    | Ok () -> print_endline "certificate: VERIFIED by independent checker"
    | Error msg ->
      Printf.printf "certificate: REJECTED: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "emit the fragment certificate (evidence + counter-witnesses) and \
          check it independently")
    Term.(const run $ program_src_term)

(* ------------------------------------------------------------------ *)
(* calm report *)

let report_cmd =
  let files_term =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "calm-bench/v1 trajectory files in chronological order (e.g. \
             bench/baseline.json bench.json).")
  in
  let html_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Write a self-contained HTML dashboard (inline-SVG \
             sparklines, no external assets) to $(docv).")
  in
  let md_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "md" ] ~docv:"FILE"
          ~doc:
            "Write the markdown summary to $(docv) instead of stdout.")
  in
  let record_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Include a $(b,--record) directory in the dashboard: each \
             series of its series.jsonl becomes a sparkline row, next to \
             its metrics.json and profile.json.")
  in
  let diff_term =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Regression gate: compare consecutive files (every guarded \
             metric row of the older file must appear, byte-equal, in the \
             newer one; wall clocks are not compared); print the \
             per-metric regression table and exit 1 on any regression, or \
             when no guarded row was compared.")
  in
  (* One file of a --record directory, read and schema-checked. *)
  let load dir name kind validate =
    let path = Filename.concat dir name in
    match validate (read_file path) with
    | Ok v -> v
    | Error m ->
      Printf.eprintf "%s: INVALID %s artifact: %s\n" path kind m;
      exit 1
  in
  let run files html md record diff =
    let benches =
      List.map
        (fun path ->
          match Observe.Report.load_bench ~path (read_file path) with
          | Ok b -> b
          | Error m ->
            Printf.eprintf "%s\n" m;
            exit 1)
        files
    in
    if diff then begin
      let regressions, compared = Observe.Report.diff benches in
      print_string (Observe.Report.render_diff regressions compared);
      if regressions <> [] || compared = 0 then exit 1
    end
    else begin
      let series, metrics, profile =
        match record with
        | None -> (None, None, None)
        | Some dir ->
          let series =
            load dir "series.jsonl" "calm-series/v1" (fun c ->
                Result.map
                  (fun () -> c)
                  (Observe.Schema_check.validate_series_jsonl c))
          in
          let metrics =
            load dir "metrics.json" "calm-metrics/v1"
              (parse_validated Observe.Schema_check.validate_metrics)
          in
          let profile =
            load dir "profile.json" "calm-profile/v1"
              (parse_validated Observe.Schema_check.validate_profile)
          in
          (Some series, Some metrics, Some profile)
      in
      (match html with
      | None -> ()
      | Some file ->
        write_file file
          (Observe.Report.html ?series ?metrics ?profile benches);
        Printf.printf "report: wrote %s\n" file);
      let summary = Observe.Report.markdown benches in
      match md with
      | None -> if html = None then print_string summary
      | Some file ->
        write_file file summary;
        Printf.printf "report: wrote %s\n" file
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "aggregate bench trajectories (plus an optional --record \
          directory) into an HTML dashboard and markdown summary, or gate \
          a fresh trajectory against the committed baseline with --diff")
    Term.(const run $ files_term $ html_term $ md_term $ record_term $ diff_term)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "weaker forms of monotonicity for declarative networking" in
  let info = Cmd.info "calm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            eval_cmd; classify_cmd; check_cmd; run_cmd; sweep_cmd;
            explain_cmd; detect_cmd; explore_cmd; validate_cmd; report_cmd;
            plan_cmd; graph_cmd; figure2_cmd; lint_cmd; certify_cmd;
          ]))
