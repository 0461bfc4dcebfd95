(* calm — command-line driver for the library.

   Subcommands:
     calm eval      evaluate a Datalog¬ program on an input instance
     calm classify  syntactic fragment + CALM level + empirical placement
     calm check     monotonicity-class membership with explicit bounds
     calm run       compile and run once on a simulated network: output
                    vs Q(input), heartbeat witness, telemetry exports
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
     calm profile   span-tree attribution of the monotonicity scans
                    (--out/--folded/--chrome exports)
     calm graph, figure2, lint, certify

   Programs use the conventional syntax (see lib/datalog/parser.mli);
   facts are given as 'E(1,2). E(2,3)'. *)

open Relational
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument plumbing *)

let read_file f =
  let ic = open_in f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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

let semantics_term =
  Arg.(
    value
    & opt
        (enum
           [
             ("stratified", Datalog.Program.Stratified);
             ("well-founded", Datalog.Program.Well_founded);
           ])
        Datalog.Program.Stratified
    & info [ "semantics" ] ~docv:"SEM" ~doc:"stratified or well-founded.")

let jobs_term =
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel search paths (membership \
           checking, model checking). Defaults to the number of cores; 1 \
           forces the sequential paths. Verdicts and certificates are \
           independent of $(docv).")

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

let load_program ~outputs ~semantics src =
  try Datalog.Program.parse ~outputs ~semantics src with
  | Datalog.Parser.Syntax_error { line; col; message } ->
    Printf.eprintf "syntax error (line %d, column %d): %s\n" line col message;
    exit 1
  | Invalid_argument msg ->
    Printf.eprintf "invalid program: %s\n" msg;
    exit 1

(* Like {!load_program} but falls back to the well-founded semantics for
   unstratifiable programs (win-move!). *)
let load_program_any ~outputs src =
  match Datalog.Program.parse ~outputs ~semantics:Datalog.Program.Stratified src with
  | p -> p
  | exception Invalid_argument _ ->
    Printf.eprintf "(not stratifiable; using well-founded semantics)\n";
    load_program ~outputs ~semantics:Datalog.Program.Well_founded src
  | exception Datalog.Parser.Syntax_error { line; col; message } ->
    Printf.eprintf "syntax error (line %d, column %d): %s\n" line col message;
    exit 1

(* ------------------------------------------------------------------ *)
(* Observability plumbing: --metrics-out / --trace-out / --profile.

   The wrapper resets the root collector, enables the default event sink
   when a trace is requested, runs the command body, and then writes the
   requested artifacts. Stable metrics are jobs-independent (see
   lib/observe/metrics.mli); --redact-timings makes --profile output
   reproducible too. *)

type obs = {
  metrics_out : string option;
  trace_out : string option;
  profile : bool;
  profile_out : string option;
  redact_timings : bool;
  series_out : string option;
  live : bool;
  heartbeat : float;
}

let obs_term =
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a calm-metrics/v1 JSON snapshot of the run's metrics to \
             $(docv). Stable metrics are independent of $(b,--jobs).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record structured events and write them to $(docv): Chrome \
             trace_event JSON (open in Perfetto or chrome://tracing; pool \
             workers appear as separate tracks), or JSONL when $(docv) \
             ends in $(b,.jsonl).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable span profiling and print a human-readable metrics \
             profile plus the attribution span tree to stdout at exit.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Enable span profiling and write a calm-profile/v1 JSON \
             document (span tree with counts, annotations, and timings) \
             to $(docv). Counts and annotations are independent of \
             $(b,--jobs).")
  in
  let redact_timings =
    Arg.(
      value & flag
      & info [ "redact-timings" ]
          ~doc:
            "In $(b,--profile) output, replace schedule-dependent numbers \
             (durations, per-worker tallies) with '-' so the profile is \
             byte-reproducible.")
  in
  let series_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "Enable the time-series recorder and write a calm-series/v1 \
             JSONL document (per-round / per-depth / per-base \
             trajectories) to $(docv). Stable series are independent of \
             $(b,--jobs).")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Enable the time-series recorder and print live \
             rate/quantile/ETA progress lines to stderr at the \
             $(b,--heartbeat) cadence.")
  in
  let heartbeat =
    Arg.(
      value
      & opt float 5.
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "Cadence (seconds) of progress output: plain \\[hb\\] lines \
             during network stabilization, and \\[live\\] lines when \
             $(b,--live) is set. 0 disables the plain heartbeat.")
  in
  let mk metrics_out trace_out profile profile_out redact_timings series_out
      live heartbeat =
    {
      metrics_out;
      trace_out;
      profile;
      profile_out;
      redact_timings;
      series_out;
      live;
      heartbeat;
    }
  in
  Term.(
    const mk $ metrics_out $ trace_out $ profile $ profile_out
    $ redact_timings $ series_out $ live $ heartbeat)

let write_file f s =
  let oc = open_out f in
  output_string oc s;
  close_out oc

let with_observability obs f =
  Observe.Metrics.reset Observe.Metrics.root;
  if obs.trace_out <> None then Observe.Sink.enable Observe.Sink.default;
  if obs.profile || obs.profile_out <> None then Observe.Profile.enable ();
  if obs.series_out <> None || obs.live then begin
    Observe.Series.reset Observe.Series.root;
    Observe.Series.enable ();
    if obs.live then Observe.Series.set_live obs.heartbeat
  end;
  let finish () =
    Observe.Profile.disable ();
    (if obs.series_out <> None || obs.live then begin
       Observe.Series.disable ();
       Observe.Series.set_live 0.;
       match obs.series_out with
       | None -> ()
       | Some file -> write_file file (Observe.Series.to_jsonl Observe.Series.root)
     end);
    (match obs.metrics_out with
    | None -> ()
    | Some file ->
      write_file file
        (Observe.Json.to_string_pretty
           (Observe.Metrics.to_json Observe.Metrics.root)
        ^ "\n"));
    (match obs.trace_out with
    | None -> ()
    | Some file ->
      let events = Observe.Sink.events Observe.Sink.default in
      Observe.Sink.disable Observe.Sink.default;
      if Filename.check_suffix file ".jsonl" then
        write_file file (Observe.Sink.to_jsonl events)
      else write_file file (Observe.Sink.to_chrome events));
    (match obs.profile_out with
    | None -> ()
    | Some file ->
      write_file file
        (Observe.Json.to_string_pretty
           (Observe.Profile.to_json Observe.Metrics.root)
        ^ "\n"));
    if obs.profile then begin
      Format.printf "%a@?"
        (Observe.Metrics.pp_profile ~redact_timings:obs.redact_timings)
        Observe.Metrics.root;
      Format.printf "%a@?"
        (Observe.Profile.pp ~redact_timings:obs.redact_timings)
        Observe.Metrics.root
    end
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* calm eval *)

let eval_cmd =
  let run src outputs semantics facts facts_file =
    let program = load_program ~outputs ~semantics src in
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
      const run $ program_src_term $ outputs_term $ semantics_term
      $ facts_term $ facts_file_term)

(* ------------------------------------------------------------------ *)
(* calm classify *)

let bounds_term =
  let dom =
    Arg.(value & opt int 3 & info [ "dom" ] ~doc:"Base-domain size for checks.")
  in
  let fresh = Arg.(value & opt int 2 & info [ "fresh" ] ~doc:"Fresh values.") in
  let base =
    Arg.(value & opt int 3 & info [ "max-base" ] ~doc:"Max base facts.")
  in
  let ext =
    Arg.(value & opt int 2 & info [ "max-ext" ] ~doc:"Max extension facts.")
  in
  let mk dom_size fresh max_base max_ext =
    { Monotone.Checker.dom_size; fresh; max_base; max_ext }
  in
  Term.(const mk $ dom $ fresh $ base $ ext)

let classify_cmd =
  let run src outputs bounds jobs =
    let program = load_program_any ~outputs src in
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
    Printf.printf "empirical level: %s (bounded: dom %d, fresh %d, base %d, ext %d)\n"
      (Calm_core.Hierarchy.to_string empirical)
      bounds.Monotone.Checker.dom_size bounds.Monotone.Checker.fresh
      bounds.Monotone.Checker.max_base bounds.Monotone.Checker.max_ext;
    let points = Datalog.Points_of_order.analyze program.Datalog.Program.rules in
    Printf.printf "points of order: %d — %s\n" (List.length points)
      (Datalog.Points_of_order.coordination_level program.Datalog.Program.rules);
    List.iter
      (fun pt -> Format.printf "  %a@." Datalog.Points_of_order.pp_point pt)
      points
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"place a program in the refined CALM hierarchy")
    Term.(
      const run $ program_src_term $ outputs_term $ bounds_term $ jobs_term)

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
       a violated check still writes its telemetry artifacts
       (--metrics-out/--series-out used to be skipped on exit 2). *)
    let code =
      with_observability obs @@ fun () ->
      let program = load_program_any ~outputs src in
      let q = Datalog.Program.query ~name:"program" program in
      let t0 = Unix.gettimeofday () in
      let outcome = Monotone.Checker.check_exhaustive ~bounds ~jobs kind q in
      let wall = Unix.gettimeofday () -. t0 in
      match outcome with
      | Monotone.Checker.No_violation { pairs } ->
        Printf.printf
          "%s-monotonicity holds on all %d admissible pairs within bounds\n"
          (Monotone.Classes.kind_to_string kind)
          pairs;
        Printf.printf "checked in %.3fs (%.0f pairs/s)\n" wall
          (float_of_int pairs /. Float.max wall 1e-9);
        0
      | Monotone.Checker.Violated v ->
        Format.printf "%a@." Monotone.Classes.pp_violation v;
        Printf.printf "violated after %.3fs\n" wall;
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
   that stays Beyond compiles to the coordinated barrier strategy. *)
type setup = {
  input : Instance.t;
  compiled : Calm_core.Compile.compiled;
  network : Distributed.network;
}

let setup ~outputs ~nodes src facts facts_file =
  if nodes < 1 then begin
    Printf.eprintf "invalid --nodes %d: a network has at least one node\n"
      nodes;
    exit 1
  end;
  let program = load_program_any ~outputs src in
  let input =
    resolve_input (Datalog.Program.input_schema program) facts facts_file
  in
  {
    input;
    compiled = Calm_core.Compile.compile_program program;
    network = Distributed.network_of_ints (List.init nodes (fun i -> 1 + i));
  }

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
           clauses seed=S, dup=PxK, loss=P:D, horizon=H, crash=N\\@R, \
           part=G1|G2\\@R+D (e.g. \
           'seed=7;dup=0.4x3;loss=0.25:2;crash=2\\@4;part=1|2,3\\@2+3'), \
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
  let causal_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "causal-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's causal trace — every transition with its \
             Lamport clock, vector clock, and message origins — as a \
             calm-causal/v1 JSON document to $(docv).")
  in
  let causal_dot_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "causal-dot" ] ~docv:"FILE"
          ~doc:
            "Write the run's happens-before DAG as Graphviz DOT to \
             $(docv): one cluster per node, program order solid, message \
             deliveries dashed.")
  in
  let causal_chrome_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "causal-chrome" ] ~docv:"FILE"
          ~doc:
            "Write the run as a Chrome trace_event file to $(docv): one \
             track per node on the Lamport time axis, message deliveries \
             as flow arrows (open in Perfetto or chrome://tracing).")
  in
  let run src outputs facts facts_file nodes scheduler seed faults causal_out
      causal_dot causal_chrome obs =
    with_observability obs @@ fun () ->
    let { input; compiled; network } =
      setup ~outputs ~nodes src facts facts_file
    in
    let faults = faults_of_flag ~network faults in
    let level = compiled.Calm_core.Compile.level in
    Printf.printf "compiled at level %s (%s strategy)\n"
      (Calm_core.Hierarchy.to_string level)
      (if level = Calm_core.Hierarchy.Beyond then "coordinated barrier"
       else Calm_core.Hierarchy.transducer_model level);
    let policy = default_policy_for compiled network in
    let sched = scheduler_of nodes seed scheduler in
    let tracer =
      if causal_out <> None || causal_dot <> None || causal_chrome <> None
      then Some (Network.Trace.collector ())
      else None
    in
    let t0 = Unix.gettimeofday () in
    let result =
      Network.Run.run ?tracer ?faults ~heartbeat:obs.heartbeat
        ~variant:compiled.Calm_core.Compile.variant ~policy
        ~transducer:compiled.Calm_core.Compile.transducer ~input sched
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf
      "policy=%s scheduler=%s quiesced=%b rounds=%d transitions=%d \
       messages=%d deliveries=%d\n"
      (Network.Policy.name policy)
      (Network.Run.scheduler_label ?faults sched)
      result.Network.Run.quiesced result.Network.Run.rounds
      result.Network.Run.transitions result.Network.Run.messages_sent
      result.Network.Run.deliveries;
    Printf.printf "wall=%.3fs rate=%.0f deliveries/s (%.0f transitions/s)\n"
      wall
      (float_of_int result.Network.Run.deliveries /. Float.max wall 1e-9)
      (float_of_int result.Network.Run.transitions /. Float.max wall 1e-9);
    Printf.printf "output (%d facts): %s\n"
      (Instance.cardinal result.Network.Run.outputs)
      (Instance.to_string result.Network.Run.outputs);
    (* Q(input) and the witness search record into a throwaway
       collector, so the telemetry artifacts describe the run alone. *)
    Observe.Metrics.silenced (fun () ->
        let query = compiled.Calm_core.Compile.query in
        Printf.printf "distributed output matches centralized: %b\n"
          (Instance.equal result.Network.Run.outputs (Query.apply query input));
        let t0 = Unix.gettimeofday () in
        match
          Network.Coordination.heartbeat_witness
            ~variant:compiled.Calm_core.Compile.variant
            ~transducer:compiled.Calm_core.Compile.transducer ~query ~input
            network
        with
        | Some w ->
          let wall = Unix.gettimeofday () -. t0 in
          let beats = w.Network.Coordination.result.Network.Run.transitions in
          Printf.printf
            "coordination-freeness witness: node %s, %d heartbeats, 0 \
             messages read\n"
            (Value.to_string w.Network.Coordination.node)
            beats;
          Printf.printf "witness search: %.3fs (%.0f heartbeats/s)\n" wall
            (float_of_int beats /. Float.max wall 1e-9)
        | None -> print_endline "no heartbeat witness found");
    match tracer with
    | None -> ()
    | Some t ->
      let events = Network.Trace.events t in
      Option.iter
        (fun f -> write_file f (Network.Trace.to_causal_json ~network events))
        causal_out;
      Option.iter
        (fun f -> write_file f (Network.Trace.to_dot events))
        causal_dot;
      Option.iter
        (fun f ->
          write_file f (Network.Trace.to_chrome_causal ~network events))
        causal_chrome
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "compile a program and run it once on a simulated network; \
          report whether the output equals Q(input) and search for a \
          heartbeat-only coordination-freeness witness (instrumented; see \
          --metrics-out / --trace-out / --profile / --causal-out / \
          --causal-dot / --causal-chrome / --faults)")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ scheduler_term $ seed_term
      $ faults_term $ causal_out_term $ causal_dot_term
      $ causal_chrome_term $ obs_term)

(* ------------------------------------------------------------------ *)
(* calm sweep *)

let sweep_cmd =
  let traces_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "traces-out" ] ~docv:"FILE"
          ~doc:
            "Write every cell's causal trace as JSONL to $(docv): cells \
             sorted by label, each cell's events in the canonical \
             (lamport, node, index) order — a linear extension of \
             happens-before — so the bytes are identical under any \
             $(b,--jobs).")
  in
  let run src outputs facts facts_file nodes jobs faults traces_out obs =
    (* The exit code leaves the wrapper first, so an inconsistent sweep
       still writes its telemetry artifacts. *)
    let code =
      with_observability obs @@ fun () ->
      let { input; compiled; network } =
        setup ~outputs ~nodes src facts facts_file
      in
      let query = compiled.Calm_core.Compile.query in
      let policies =
        Network.Netquery.default_policies
          ~domain_guided_only:compiled.Calm_core.Compile.domain_guided_only
          query.Query.input network
      in
      let faults = faults_of_flag ~network faults in
      let cells =
        Network.Netquery.grid policies Network.Netquery.default_schedulers
      in
      let results =
        Network.Run.sweep ~jobs ?faults ~heartbeat:obs.heartbeat
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
        (fun file ->
          write_file file
            (Network.Trace.sweep_to_jsonl
               (List.map (fun (label, _, events) -> (label, events)) results)))
        traces_out;
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
          otherwise); stable metrics and --traces-out bytes are identical \
          under any --jobs")
    Term.(
      const run $ program_src_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ jobs_term $ faults_term
      $ traces_out_term $ obs_term)

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
    let sched = scheduler_of nodes seed scheduler in
    let tracer = Network.Trace.collector () in
    let result =
      Network.Run.run ~tracer ?faults
        ~variant:compiled.Calm_core.Compile.variant ~policy
        ~transducer:compiled.Calm_core.Compile.transducer ~input sched
    in
    let events = Network.Trace.events tracer in
    Printf.printf "level=%s policy=%s quiesced=%b transitions=%d\n"
      (Calm_core.Hierarchy.to_string compiled.Calm_core.Compile.level)
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
        setup ~outputs ~nodes src facts facts_file
      in
      let faults = faults_of_flag ~network faults in
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
          disagreement; see --faults and --fixture)")
    Term.(
      const run $ program_src_opt_term $ outputs_term $ facts_term
      $ facts_file_term $ nodes_term $ jobs_term $ scatter_term
      $ fixture_term $ faults_term)

(* ------------------------------------------------------------------ *)
(* calm validate *)

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
                ]))
          None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Artifact kind: metrics, bench, trace, causal, profile, or \
             series.")
  in
  let file_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"The JSON artifact to validate.")
  in
  let run kind file =
    let contents = read_file file in
    let json validate =
      match Observe.Json.of_string contents with
      | Error m -> Error ("not valid JSON: " ^ m)
      | Ok j -> validate j
    in
    let result =
      match kind with
      | `Trace when Filename.check_suffix file ".jsonl" ->
        Result.map (fun _ -> ()) (Observe.Sink.of_jsonl contents)
      | `Series -> Observe.Schema_check.validate_series_jsonl contents
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
        | `Series -> "calm-series/v1")
    | Error m ->
      Printf.eprintf "%s: INVALID: %s\n" file m;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "validate a telemetry artifact (--metrics-out snapshot, bench \
          --json trajectory, --trace-out trace, --causal-out causal \
          trace, or --profile-out profile) against its schema")
    Term.(const run $ kind_term $ file_term)

(* ------------------------------------------------------------------ *)
(* calm plan *)

let plan_cmd =
  let run src outputs facts facts_file =
    let program = load_program_any ~outputs src in
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
(* calm profile *)

let profile_cmd =
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the calm-profile/v1 JSON export to $(docv).")
  in
  let folded_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks ('frame;frame value' lines, self-time in \
             µs) to $(docv) — feed to flamegraph.pl or speedscope.")
  in
  let chrome_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event rendering of the span tree to \
             $(docv) (open in Perfetto or chrome://tracing).")
  in
  let redact_term =
    Arg.(
      value & flag
      & info [ "redact-timings" ]
          ~doc:
            "Replace schedule-dependent numbers with '-' so stdout is \
             byte-reproducible (counts and annotations only).")
  in
  let run src outputs bounds jobs out folded chrome redact =
    Observe.Metrics.reset Observe.Metrics.root;
    Observe.Profile.enable ();
    let program = load_program_any ~outputs src in
    let q = Datalog.Program.query ~name:"program" program in
    let t0 = Unix.gettimeofday () in
    let placement = Monotone.Checker.place ~bounds ~jobs q in
    let wall = Unix.gettimeofday () -. t0 in
    Observe.Profile.disable ();
    Printf.printf "placement: %s (dom %d, fresh %d, base %d, ext %d)\n"
      (Monotone.Checker.strongest placement)
      bounds.Monotone.Checker.dom_size bounds.Monotone.Checker.fresh
      bounds.Monotone.Checker.max_base bounds.Monotone.Checker.max_ext;
    let root = Observe.Metrics.root in
    Format.printf "%a@?" (Observe.Profile.pp ~redact_timings:redact) root;
    (if not redact then
       let nodes = Observe.Profile.spans root in
       match
         List.find_opt (fun n -> n.Observe.Profile.path = [ "scan" ]) nodes
       with
       | Some scan ->
         Printf.printf
           "attribution: %.1f%% of the %.3fs scan wall time is attributed \
            to named (base, stage, rule) spans (%.3fs total placement wall)\n"
           (100. *. Observe.Profile.coverage scan)
           scan.Observe.Profile.total_s wall
       | None -> ());
    Option.iter
      (fun f ->
        write_file f
          (Observe.Json.to_string_pretty (Observe.Profile.to_json root) ^ "\n"))
      out;
    Option.iter (fun f -> write_file f (Observe.Profile.to_folded root)) folded;
    Option.iter
      (fun f ->
        write_file f
          (Observe.Sink.to_chrome (Observe.Profile.to_chrome_events root)))
      chrome
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "profile the full monotonicity placement of a program: run the \
          plain/distinct/disjoint scans with span profiling enabled and \
          print the attribution tree (scan → base → stage/probe → rule, \
          with cache-hit / witness-route / empty-before annotations); \
          export with --out / --folded / --chrome")
    Term.(
      const run $ program_src_term $ outputs_term $ bounds_term $ jobs_term
      $ out_term $ folded_term $ chrome_term $ redact_term)

(* ------------------------------------------------------------------ *)
(* calm graph *)

let graph_cmd =
  let run src outputs =
    let program = load_program_any ~outputs src in
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
  let budget_term =
    Arg.(
      value & opt int 20_000
      & info [ "budget" ] ~doc:"Maximum configurations to explore.")
  in
  let run src outputs facts facts_file budget jobs =
    let { input; compiled; network } =
      setup ~outputs ~nodes:2 src facts facts_file
    in
    let policy = default_policy_for compiled network in
    Printf.printf
      "model-checking every message order on a 2-node network (budget %d)...\n"
      budget;
    let verdict =
      Network.Explore.check ~max_configs:budget ~jobs
        ~variant:compiled.Calm_core.Compile.variant ~policy
        ~transducer:compiled.Calm_core.Compile.transducer
        ~query:compiled.Calm_core.Compile.query ~input ()
    in
    print_endline (Network.Explore.verdict_to_string verdict)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "exhaustively verify the compiled strategy under every message \
          order (tiny inputs)")
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
    | Error msg ->
      Printf.eprintf "calm lint: %s\n" msg;
      exit 2
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
      | Some f ->
        let oc = open_out f in
        output_string oc rendered;
        close_out oc);
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
      try Datalog.Adom.augment (Datalog.Parser.parse_program src) with
      | Datalog.Parser.Syntax_error { line; col; message } ->
        Printf.eprintf "syntax error (line %d, column %d): %s\n" line col
          message;
        exit 1
      | Invalid_argument msg ->
        Printf.eprintf "invalid program: %s\n" msg;
        exit 1
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
  let series_term =
    Arg.(
      value
      & opt (some file) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:
            "Include a calm-series/v1 JSONL artifact (from --series-out): \
             each series becomes a sparkline row in the dashboard.")
  in
  let metrics_term =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Include a calm-metrics/v1 snapshot in the dashboard.")
  in
  let profile_term =
    Arg.(
      value
      & opt (some file) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Include a calm-profile/v1 document in the dashboard.")
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
  let load_validated kind validate file =
    let contents = read_file file in
    match Observe.Json.of_string contents with
    | Error m ->
      Printf.eprintf "%s: not valid JSON: %s\n" file m;
      exit 1
    | Ok j -> (
      match validate j with
      | Error m ->
        Printf.eprintf "%s: INVALID %s artifact: %s\n" file kind m;
        exit 1
      | Ok () -> j)
  in
  let run files html md series metrics profile diff =
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
      let series_contents =
        Option.map
          (fun file ->
            let contents = read_file file in
            match Observe.Schema_check.validate_series_jsonl contents with
            | Ok () -> contents
            | Error m ->
              Printf.eprintf "%s: INVALID calm-series/v1 artifact: %s\n"
                file m;
              exit 1)
          series
      in
      let metrics_json =
        Option.map
          (load_validated "calm-metrics/v1"
             Observe.Schema_check.validate_metrics)
          metrics
      in
      let profile_json =
        Option.map
          (load_validated "calm-profile/v1"
             Observe.Schema_check.validate_profile)
          profile
      in
      (match html with
      | None -> ()
      | Some file ->
        write_file file
          (Observe.Report.html ?series:series_contents ?metrics:metrics_json
             ?profile:profile_json benches);
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
         "aggregate bench trajectories (plus optional metrics / series / \
          profile artifacts) into an HTML dashboard and markdown summary, \
          or gate a fresh trajectory against the committed baseline with \
          --diff")
    Term.(
      const run $ files_term $ html_term $ md_term $ series_term
      $ metrics_term $ profile_term $ diff_term)

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
            plan_cmd; profile_cmd; graph_cmd; figure2_cmd; lint_cmd;
            certify_cmd;
          ]))
