(* calm-perf: the perf benchmark.

   One workload per process:

     perf.exe --workload NAME [--seed S] [--seconds N] [--trace 0|1]
              [--trace-dir DIR]

   sets the workload up (five times; the median is setup_s), then runs
   timed passes for N seconds at jobs = 1 and prints every end-to-end
   metric with its unit. With --trace 1 it instead alternates untraced,
   traced, profiled and series-armed passes for N seconds, adds a jobs-2
   pass and the microbenches, prints every per-layer metric, and writes
   a Chrome trace and the per-layer JSON under DIR. Either way the last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   Without --workload it runs every workload, each in its own child
   process, one at a time, and prints a table (--json FILE keeps it).
   --smoke [--spec BENCHMARK.json] is the quick self-check run by
   dune runtest. *)

let e2e_metrics =
  [
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("ops_per_s", "1/s");
    ("steps_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("monotone.pairs", "count");
    ("monotone.probes", "count");
    ("monotone.bases", "count");
    ("monotone.self_s", "s");
    ("monotone.self_share", "ratio");
    ("queries.witness_stage_s", "s");
    ("queries.witness_probe_s", "s");
    ("queries.witness_probes", "count");
    ("queries.eval_s", "s");
    ("datalog.ivm_stage_s", "s");
    ("datalog.ivm_probe_s", "s");
    ("datalog.ivm_probe_us", "us");
    ("datalog.eval_s", "s");
    ("eval.ivm_applies", "count");
    ("eval.ivm_rederived", "count");
    ("eval.join_probes", "count");
    ("eval.index_hits", "count");
    ("datalog.index_hit_ratio", "ratio");
    ("transducer.q_out_s", "s");
    ("transducer.q_ins_s", "s");
    ("transducer.q_del_s", "s");
    ("transducer.q_snd_s", "s");
    ("transducer.calls", "count");
    ("policy.calls", "count");
    ("policy.s", "s");
    ("run.self_s", "s");
    ("run.self_share", "ratio");
    ("config.transition_us", "us");
    ("config.equal_us", "us");
    ("config.outputs_us", "us");
    ("net.transitions", "count");
    ("net.rounds", "count");
    ("net.messages_sent", "count");
    ("net.deliveries", "count");
    ("net.messages_per_transition", "ratio");
    ("explore.expanded", "count");
    ("explore.dedup_hits", "count");
    ("explore.dedup_ratio", "ratio");
    ("explore.self_s", "s");
    ("instance.union_us", "us");
    ("instance.diff_us", "us");
    ("instance.restrict_us", "us");
    ("multiset.union_us", "us");
    ("pool.map_task_us", "us");
    ("pool.speedup", "ratio");
    ("pool.busy_share", "ratio");
    ("observe.profile_overhead", "ratio");
    ("observe.series_overhead", "ratio");
    ("trace.overhead", "ratio");
  ]

(* -- small statistics --------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks. *)
let quantile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let h = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let ratio a b = if b = 0. then 0. else a /. b
let secs ns = float_of_int ns *. 1e-9

(* -- operations and passes --------------------------------------------- *)

(* Every operation of the process, warm-up and trace passes included. *)
let attempted = ref 0
let failed = ref 0
let quiet = ref false

let note_failure label e =
  incr failed;
  if !failed <= 5 && not !quiet then
    Printf.eprintf "perf: operation %s failed: %s\n%!" label
      (match e with
      | Workloads.Wrong_answer m -> "wrong answer: " ^ m
      | e -> "raised " ^ Printexc.to_string e)

type pass = {
  wall_ns : int;
  op_ns : int;  (** sum of operation spans *)
  latencies_ns : (string * int) list;  (** successful operations *)
  steps : int;
  ops : int;
}

let run_op ~jobs ~spans (op : Workloads.op) =
  let id = if spans then Tracer.begin_op () else -1 in
  let t0 = Tracer.now_ns () in
  let r = try Ok (op.Workloads.exec ~jobs) with e -> Error e in
  let dt = Tracer.now_ns () - t0 in
  if spans then
    Tracer.end_op ~name:op.Workloads.label ~id ~start_ns:t0 ~dur_ns:dt;
  (op.Workloads.label, dt, r)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One pass over the workload's operations in a seeded order. Metrics are
   reset first, so the library's counters read afterwards are this
   pass's. *)
let run_pass ?(jobs = 1) ?(spans = false) rng (w : Workloads.t) ops =
  let ops = shuffle rng ops in
  Observe.Metrics.reset (Observe.Metrics.current ());
  let t0 = Tracer.now_ns () in
  let results =
    if jobs > 1 && w.Workloads.pool_ops then
      Parallel.Pool.with_pool ~jobs (fun p ->
          Parallel.Pool.map p (run_op ~jobs:1 ~spans:false) ops)
    else List.map (run_op ~jobs ~spans) ops
  in
  let wall_ns = Tracer.now_ns () - t0 in
  List.fold_left
    (fun p (label, dt, r) ->
      incr attempted;
      let p = { p with op_ns = p.op_ns + dt; ops = p.ops + 1 } in
      match r with
      | Ok steps ->
        {
          p with
          latencies_ns = (label, dt) :: p.latencies_ns;
          steps = p.steps + steps;
        }
      | Error e ->
        note_failure label e;
        p)
    { wall_ns; op_ns = 0; latencies_ns = []; steps = 0; ops = 0 }
    results

(* Build the workload and run its untimed warm-up pass, [n] times; the
   last build is the one measured. *)
let setup ~scale ~seed ~n rng name =
  let rec go k acc =
    let t0 = Tracer.now_ns () in
    let w = Workloads.make scale ~seed name in
    ignore (run_pass rng w (w.Workloads.ops ~traced:false));
    let acc = secs (Tracer.now_ns () - t0) :: acc in
    if k <= 1 then (w, acc) else go (k - 1) acc
  in
  go n []

(* Passes until [seconds] have elapsed; at least one. *)
let timed_loop ~seconds f =
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let acc = f () :: acc in
    if Tracer.now_ns () >= deadline then List.rev acc else go acc
  in
  go []

(* -- end-to-end measurement ------------------------------------------- *)

(* Peak resident set size (VmHWM) of this process; where /proc is not
   available, the OCaml major heap's peak instead. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.)
            | None -> find ())
        in
        find ())
  in
  match try from_proc () with Sys_error _ -> None with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let measure ~scale ~seed ~seconds ~setups name =
  let rng = Random.State.make [| seed |] in
  let w, setup_times = setup ~scale ~seed ~n:setups rng name in
  let ops = w.Workloads.ops ~traced:false in
  let passes = timed_loop ~seconds (fun () -> run_pass rng w ops) in
  (* Interference from other processes only ever adds time, so each
     figure comes from the fastest passes: rates from the fastest pass,
     latencies from each operation's fastest run. The operations of a
     pass are the workload's fixed mix; p50 and p90 are taken across
     that mix. *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (label, ns) ->
          match Hashtbl.find_opt best label with
          | Some b when b <= ns -> ()
          | _ -> Hashtbl.replace best label ns)
        p.latencies_ns)
    passes;
  let lat_ms =
    Hashtbl.fold (fun _ ns acc -> (float_of_int ns *. 1e-6) :: acc) best []
  in
  let fastest f =
    List.fold_left
      (fun acc p -> Float.max acc (float_of_int (f p) /. secs p.wall_ns))
      0. passes
  in
  Printf.printf
    "%s: %d timed passes of %d operations in %.3f s; set-ups %s s\n" name
    (List.length passes) (List.length ops)
    (secs (List.fold_left (fun a p -> a + p.wall_ns) 0 passes))
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") setup_times));
  [
    ("op_ms_p50", quantile 0.5 lat_ms);
    ("op_ms_p90", quantile 0.9 lat_ms);
    ("ops_per_s", fastest (fun p -> p.ops));
    ("steps_per_s", fastest (fun p -> p.steps));
    ("setup_s", median setup_times);
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* -- traced measurement ------------------------------------------------- *)

type mode = Untraced | Traced | Profiled | Series_armed

(* The per-layer figures of one traced pass. *)
let layer_values (w : Workloads.t) (p : pass) (t : Tracer.totals) =
  let c n = float_of_int (Workloads.counter n) in
  let s l = t.Tracer.layer_ns.(Tracer.index l) *. 1e-9 in
  let calls l = float_of_int t.Tracer.layer_calls.(Tracer.index l) in
  let op_s = secs p.op_ns in
  let layers_s = List.fold_left (fun a l -> a +. s l) 0. Tracer.layers in
  let self = op_s -. layers_s in
  let owned o = if w.Workloads.owner = o then self else 0. in
  let owned_share o = ratio (owned o) op_s in
  let open Tracer in
  [
    ("monotone.pairs", c "monotone.pairs_scanned");
    ("monotone.probes", c "monotone.probes");
    ("monotone.bases", calls Query_eval +. calls Program_eval);
    ("monotone.self_s", owned "monotone");
    ("monotone.self_share", owned_share "monotone");
    ("queries.witness_stage_s", s Witness_stage);
    ("queries.witness_probe_s", s Witness_probe);
    ("queries.witness_probes", calls Witness_probe);
    ("queries.eval_s", s Query_eval);
    ("datalog.ivm_stage_s", s Ivm_stage);
    ("datalog.ivm_probe_s", s Ivm_probe);
    ("datalog.ivm_probe_us", ratio (s Ivm_probe *. 1e6) (calls Ivm_probe));
    ("datalog.eval_s", s Program_eval);
    ("eval.ivm_applies", c "eval.ivm_applies");
    ("eval.ivm_rederived", c "eval.ivm_rederived");
    ("eval.join_probes", c "eval.join_probes");
    ("eval.index_hits", c "eval.index_hits");
    ( "datalog.index_hit_ratio",
      ratio (c "eval.index_hits") (c "eval.join_probes") );
    ("transducer.q_out_s", s Q_out);
    ("transducer.q_ins_s", s Q_ins);
    ("transducer.q_del_s", s Q_del);
    ("transducer.q_snd_s", s Q_snd);
    ( "transducer.calls",
      calls Q_out +. calls Q_ins +. calls Q_del +. calls Q_snd );
    ("policy.calls", calls Policy_assign);
    ("policy.s", s Policy_assign);
    ("run.self_s", owned "run");
    ("run.self_share", owned_share "run");
    ("net.transitions", c "net.transitions");
    ("net.rounds", c "net.rounds");
    ("net.messages_sent", c "net.messages_sent");
    ("net.deliveries", c "net.deliveries");
    ( "net.messages_per_transition",
      ratio (c "net.messages_sent") (c "net.transitions") );
    ("explore.expanded", c "explore.expanded");
    ("explore.dedup_hits", c "explore.dedup_hits");
    ( "explore.dedup_ratio",
      if w.Workloads.owner = "explore" then
        ratio (float_of_int p.steps)
          (float_of_int p.steps +. c "explore.dedup_hits")
      else 0. );
    ("explore.self_s", owned "explore");
  ]

(* Share of the operation time per wrapped layer and the owner's self
   time, for the human report. *)
let attribution (w : Workloads.t) (p : pass) (t : Tracer.totals) =
  let op_s = secs p.op_ns in
  let rows =
    List.filter_map
      (fun l ->
        let s = t.Tracer.layer_ns.(Tracer.index l) *. 1e-9 in
        if t.Tracer.layer_calls.(Tracer.index l) = 0 then None
        else
          Some
            ( Tracer.layer_name l,
              t.Tracer.layer_calls.(Tracer.index l),
              s,
              Tracer.hot.(Tracer.index l) ))
      Tracer.layers
  in
  let layers_s = List.fold_left (fun a (_, _, s, _) -> a +. s) 0. rows in
  Printf.printf "attribution of %.4f s of operations (one traced pass):\n" op_s;
  List.iter
    (fun (n, calls, s, hot) ->
      Printf.printf "  %-28s %9d calls %10.4f s %6.1f%%%s\n" n calls s
        (100. *. ratio s op_s)
        (if hot then "  (1-in-64 sampled)" else ""))
    rows;
  Printf.printf "  %-28s %15s %10.4f s %6.1f%%\n"
    (w.Workloads.owner ^ " (self)") "" (op_s -. layers_s)
    (100. *. ratio (op_s -. layers_s) op_s);
  if t.Tracer.nested_calls > 0 then
    Printf.printf "  (%d nested wrapped calls counted in their parent)\n"
      t.Tracer.nested_calls

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let metrics_json units values =
  Observe.Json.Obj
    (List.map
       (fun (n, v) ->
         ( n,
           Observe.Json.Obj
             [ ("value", Observe.Json.Float v);
               ("unit", Observe.Json.String (List.assoc n units)) ] ))
       values)

let trace ~scale ~seed ~seconds ~setups ~dir ~micro_budget_ns name =
  let rng = Random.State.make [| seed |] in
  let w, setup_times = setup ~scale ~seed ~n:setups rng name in
  let plain = w.Workloads.ops ~traced:false in
  let traced = w.Workloads.ops ~traced:true in
  (* Counting pass: every wrapped call timed; layers called more than
     Tracer.hot_threshold times are sampled from here on. *)
  Tracer.start_pass ~spans:false;
  ignore (run_pass rng w traced);
  Tracer.set_hot (Tracer.stop_pass ());
  let walls = Hashtbl.create 4 in
  let add_wall m ns =
    Hashtbl.replace walls m
      (secs ns :: Option.value (Hashtbl.find_opt walls m) ~default:[])
  in
  let traced_passes = ref [] in
  let run_mode = function
    | Untraced -> add_wall Untraced (run_pass rng w plain).wall_ns
    | Traced ->
      Tracer.start_pass ~spans:true;
      let p = run_pass ~spans:true rng w traced in
      let t = Tracer.stop_pass () in
      add_wall Traced p.wall_ns;
      traced_passes := (p, t, layer_values w p t) :: !traced_passes
    | Profiled ->
      Observe.Profile.enable ();
      let p = run_pass rng w plain in
      Observe.Profile.disable ();
      add_wall Profiled p.wall_ns
    | Series_armed ->
      Observe.Series.enable ();
      let p = run_pass rng w plain in
      Observe.Series.disable ();
      Observe.Series.reset Observe.Series.root;
      add_wall Series_armed p.wall_ns
  in
  let cycles =
    timed_loop ~seconds (fun () ->
        List.iter run_mode [ Untraced; Traced; Profiled; Series_armed ])
  in
  Observe.Metrics.reset (Observe.Metrics.current ());
  (* One pass at jobs 2, closures wrapped but no spans. *)
  Tracer.start_pass ~spans:false;
  let p2 = run_pass ~jobs:2 rng w traced in
  let t2 = Tracer.stop_pass () in
  let micro = Micro.all ~budget_ns:micro_budget_ns (w.Workloads.capture ()) in
  let wall m = median (Option.value (Hashtbl.find_opt walls m) ~default:[]) in
  let overhead m = (wall m /. wall Untraced) -. 1. in
  let layer_median n =
    median (List.map (fun (_, _, vs) -> List.assoc n vs) !traced_passes)
  in
  let busy = Array.fold_left ( +. ) 0. t2.Tracer.layer_ns *. 1e-9 in
  let extra =
    micro
    @ [
        ("pool.speedup", wall Traced /. secs p2.wall_ns);
        ("pool.busy_share", busy /. (secs p2.wall_ns *. 2.));
        ("observe.profile_overhead", overhead Profiled);
        ("observe.series_overhead", overhead Series_armed);
        ("trace.overhead", overhead Traced);
      ]
  in
  let values =
    List.map
      (fun (n, _) ->
        match List.assoc_opt n extra with
        | Some v -> (n, v)
        | None -> (n, layer_median n))
      layer_metrics
  in
  Printf.printf
    "%s: %d trace cycles (untraced/traced/profiled/series), setup %.3f s \
     (median of %d)\n"
    name (List.length cycles) (median setup_times) (List.length setup_times);
  (match !traced_passes with
  | (p, t, _) :: _ -> attribution w p t
  | [] -> ());
  mkdir_p dir;
  let base = Filename.concat dir (Printf.sprintf "%s-seed%d" name seed) in
  write_file (base ^ ".trace.json") (Tracer.chrome_json ());
  write_file (base ^ ".layers.json")
    (Observe.Json.to_string_pretty
       (Observe.Json.Obj
          [
            ("workload", Observe.Json.String name);
            ("seed", Observe.Json.Int seed);
            ("metrics", metrics_json layer_metrics values);
          ]));
  Printf.printf "wrote %s.trace.json and %s.layers.json\n" base base;
  values

(* -- reporting --------------------------------------------------------- *)

let result_json units values =
  Observe.Json.Obj
    [
      ("correct", Observe.Json.Bool (!failed = 0));
      ("attempted", Observe.Json.Int !attempted);
      ("failed", Observe.Json.Int !failed);
      ("metrics", metrics_json units values);
    ]

let print_metrics units values =
  List.iter
    (fun (n, v) -> Printf.printf "  %-28s %16.6f %s\n" n v (List.assoc n units))
    values;
  Printf.printf "  %-28s %16.6f (%d of %d operations)\n" "fail_share"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    !failed !attempted

type opts = {
  seed : int;
  seconds : float;
  trace_on : bool;
  trace_dir : string;
}

let run_one ~scale ~setups ~micro_budget_ns o name =
  let units, values =
    if o.trace_on then
      ( layer_metrics,
        trace ~scale ~seed:o.seed ~seconds:o.seconds ~setups ~dir:o.trace_dir
          ~micro_budget_ns name )
    else
      ( e2e_metrics,
        measure ~scale ~seed:o.seed ~seconds:o.seconds ~setups name )
  in
  print_metrics units values;
  let line = Observe.Json.to_string (result_json units values) in
  print_endline line;
  line

(* -- every workload, each in a child process -------------------------- *)

let run_all ~json o =
  let child name =
    let args =
      [| Sys.executable_name; "--workload"; name; "--seed";
         string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
         "--trace"; (if o.trace_on then "1" else "0"); "--trace-dir";
         o.trace_dir |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let rec read last =
      match input_line ic with
      | line ->
        (match last with Some l -> print_endline l | None -> ());
        read (Some line)
      | exception End_of_file -> last
    in
    let last = read None in
    let status = Unix.close_process_in ic in
    match (status, Option.map Observe.Json.of_string last) with
    | Unix.WEXITED 0, Some (Ok j) -> (name, Some j)
    | _ ->
      Printf.printf "%s: child failed\n" name;
      (name, None)
  in
  let results = List.map child Workloads.names in
  let units = if o.trace_on then layer_metrics else e2e_metrics in
  Printf.printf "\n%-28s %-6s" "metric" "unit";
  List.iter (fun (n, _) -> Printf.printf " %16s" n) results;
  print_newline ();
  let value j n =
    let ( >>= ) = Option.bind in
    Observe.Json.member "metrics" j >>= Observe.Json.member n
    >>= Observe.Json.member "value"
  in
  List.iter
    (fun (n, u) ->
      Printf.printf "%-28s %-6s" n u;
      List.iter
        (fun (_, j) ->
          match Option.bind j (fun j -> value j n) with
          | Some (Observe.Json.Float v) -> Printf.printf " %16.6g" v
          | Some (Observe.Json.Int v) -> Printf.printf " %16d" v
          | _ -> Printf.printf " %16s" "-")
        results;
      print_newline ())
    units;
  let ok =
    List.for_all
      (fun (_, j) ->
        match Option.bind j (Observe.Json.member "correct") with
        | Some (Observe.Json.Bool b) -> b
        | _ -> false)
      results
  in
  Option.iter
    (fun file ->
      write_file file
        (Observe.Json.to_string_pretty
           (Observe.Json.Obj
              (List.map
                 (fun (n, j) -> (n, Option.value j ~default:Observe.Json.Null))
                 results))))
    json;
  if not ok then exit 1

(* -- smoke ------------------------------------------------------------- *)

let smoke_fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf --smoke: " ^ s);
      exit 1)
    fmt

(* A deliberately wrong expectation and a raising operation must both
   count as failures without stopping the pass. *)
let oracle_self_test () =
  let bounds =
    { Monotone.Checker.dom_size = 2; fresh = 1; max_base = 1; max_ext = 1 }
  in
  let wrong_op =
    Workloads.verdict_op ~bounds ~extra_bases:[] Queries.Zoo.tc
      Monotone.Classes.Plain ~expect_violation:true
  in
  let raising =
    { Workloads.label = "raises"; exec = (fun ~jobs:_ -> raise Not_found) }
  in
  let good =
    Workloads.verdict_op ~bounds ~extra_bases:[] Queries.Zoo.tc
      Monotone.Classes.Plain ~expect_violation:false
  in
  let w = Workloads.make Workloads.Smoke ~seed:1 "check-zoo" in
  let a0 = !attempted and f0 = !failed in
  quiet := true;
  ignore (run_pass (Random.State.make [| 1 |]) w [ wrong_op; raising; good ]);
  quiet := false;
  let attempted_here = !attempted - a0 and failed_here = !failed - f0 in
  attempted := a0;
  failed := f0;
  let share = ratio (float_of_int failed_here) (float_of_int attempted_here) in
  if not (failed_here = 2 && attempted_here = 3) then
    smoke_fail "oracle self-test: fail_share %.3f (%d of %d)" share failed_here
      attempted_here;
  Printf.printf "oracle self-test: fail_share %.3f on a wrong expectation\n"
    share

let spec_metrics spec key =
  match Observe.Json.member key spec with
  | Some (Observe.Json.List l) ->
    List.filter_map
      (fun m ->
        match (Observe.Json.member "name" m, Observe.Json.member "unit" m) with
        | Some (Observe.Json.String n), Some (Observe.Json.String u) ->
          Some (n, u)
        | _ -> None)
      l
  | _ -> smoke_fail "%s missing from the spec" key

let parse_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Observe.Json.of_string s with
  | Ok j -> j
  | Error e -> smoke_fail "%s does not parse: %s" path e

let check_line ~expected line =
  match Observe.Json.of_string line with
  | Error e -> smoke_fail "result line does not parse: %s" e
  | Ok j ->
    (match Observe.Json.member "failed" j with
    | Some (Observe.Json.Int 0) -> ()
    | _ -> smoke_fail "fail_share is not 0: %s" line);
    (match Observe.Json.member "metrics" j with
    | Some (Observe.Json.Obj l) when List.length l = List.length expected -> ()
    | _ -> smoke_fail "expected exactly %d metrics" (List.length expected));
    List.iter
      (fun (n, u) ->
        let m =
          Option.bind (Observe.Json.member "metrics" j) (Observe.Json.member n)
        in
        match
          ( Option.bind m (Observe.Json.member "value"),
            Option.bind m (Observe.Json.member "unit") )
        with
        | Some (Observe.Json.Float _ | Observe.Json.Int _),
          Some (Observe.Json.String u') when u = u' -> ()
        | _ -> smoke_fail "metric %s (%s) not printed with its unit" n u)
      expected

let smoke ~spec o =
  let spec = parse_file spec in
  let e2e = spec_metrics spec "end_to_end" in
  let layers = spec_metrics spec "per_layer" in
  oracle_self_test ();
  let dir = Filename.temp_dir "calm-perf-smoke" "" in
  List.iter
    (fun name ->
      let o = { o with seconds = 0.; trace_dir = dir } in
      let run trace_on =
        run_one ~scale:Workloads.Smoke ~setups:1 ~micro_budget_ns:200_000
          { o with trace_on } name
      in
      check_line ~expected:e2e (run false);
      check_line ~expected:layers (run true);
      let base = Filename.concat dir (Printf.sprintf "%s-seed%d" name o.seed) in
      List.iter
        (fun suffix ->
          let f = base ^ suffix in
          ignore (parse_file f);
          Sys.remove f)
        [ ".trace.json"; ".layers.json" ])
    Workloads.names;
  Sys.rmdir dir;
  print_endline "perf --smoke: ok"

(* -- command line ----------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 12. in
  let trace_on = ref false and trace_dir = ref "bench/perf/_trace" in
  let json = ref None and smoke_mode = ref false in
  let spec = ref "BENCHMARK.json" in
  let args =
    [
      ( "--workload",
        Arg.Symbol (Workloads.names, fun w -> workload := Some w),
        " run one workload in this process" );
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "N measured seconds (default 12)");
      ( "--trace",
        Arg.Int (fun t -> trace_on := t <> 0),
        "0|1 per-layer trace run instead of the end-to-end run" );
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where --trace 1 writes");
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE all-workload results" );
      ("--smoke", Arg.Set smoke_mode, " quick self-check of every workload");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json for --smoke");
    ]
  in
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]";
  let o =
    {
      seed = !seed;
      seconds = !seconds;
      trace_on = !trace_on;
      trace_dir = !trace_dir;
    }
  in
  if !smoke_mode then smoke ~spec:!spec o
  else
    match !workload with
    | None -> run_all ~json:!json o
    | Some name ->
      ignore
        (run_one ~scale:Workloads.Full ~setups:5 ~micro_budget_ns:20_000_000 o
           name)
