(* The trajectory test wall: histogram quantiles and the time-series
   recorder.

   Pinned claims:
   1. Histogram bucket keys are a deterministic, monotone, exactly
      mergeable encoding: key round-trips, representatives bound the
      value from below within one sub-bucket of relative error, and
      quantiles of a merged collector are byte-identical to the
      sequential ones.
   2. Series trajectories are byte-identical across jobs 1/2/4 — on a
      held scan, a witness (violated) scan, and a faulty sweep — and
      downsampling commutes with merging.
   3. Bench wall clocks survive export → report ingestion bit-exactly;
      non-finite values cannot enter a report (printer emits null,
      loader rejects crafted infinities).
   4. The calm-series/v1 validator accepts the exporter's output and
      rejects tampered documents; a bench trajectory that repeats an
      experiment id is malformed; Report.diff flags a seeded regression,
      a dropped guarded row and a changed explorer counter, each derived
      in memory from the committed bench/baseline.json, and never flags
      wall-clock growth. *)

open Relational
open Monotone
open Queries

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_str name expected actual = Alcotest.(check string) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Histogram bucket keys *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> Float.abs f +. 1e-12) float;
        map float_of_int (int_range (-1000) 1000);
        oneofl [ 0.; 1.; -1.; 0.5; 1e-9; 1e9; -3.25; 255.; 256.; 257. ];
      ])

let prop_bucket_roundtrip =
  QCheck2.Test.make ~name:"bucket key roundtrips through its representative"
    ~count:500 gen_value (fun v ->
      let k = Observe.Metrics.bucket_of_value v in
      let r = Observe.Metrics.bucket_value k in
      (* The representative is in the same bucket... *)
      Observe.Metrics.bucket_of_value r = k
      (* ...on the zero side of the value... *)
      && Float.abs r <= Float.abs v +. 1e-300
      && (v = 0. || (v > 0.) = (r > 0.))
      (* ...within one linear sub-bucket of relative error (mantissa
         range 0.5 wide, 8 sub-buckets: ratio at most 1.125). *)
      && (v = 0. || Float.abs v /. Float.abs r <= 1.125 +. 1e-9))

let prop_bucket_monotone =
  QCheck2.Test.make ~name:"bucket keys are monotone in the value" ~count:500
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      let a, b = (Float.min a b, Float.max a b) in
      Observe.Metrics.bucket_of_value a <= Observe.Metrics.bucket_of_value b)

(* Quantiles of a merged collector are byte-identical to sequential
   recording: per-bucket counts add exactly, so p50/p90/p99 cannot
   drift no matter how the observations were partitioned. *)
let test_quantile_merge_exact () =
  let values =
    List.init 257 (fun i -> float_of_int (((i * 7919) mod 1000) - 200))
  in
  let record buf vs =
    Observe.Metrics.with_current buf (fun () ->
        let h = Observe.Metrics.histogram "t.q" in
        List.iter (Observe.Metrics.observe h) vs)
  in
  let seq = Observe.Metrics.create () in
  record seq values;
  let par = Observe.Metrics.create () in
  let left, right =
    List.partition (fun v -> int_of_float v mod 3 = 0) values
  in
  let b1 = Observe.Metrics.create () and b2 = Observe.Metrics.create () in
  record b1 left;
  record b2 right;
  Observe.Metrics.merge_into par b1;
  Observe.Metrics.merge_into par b2;
  check_str "merged stable render = sequential"
    (Observe.Metrics.render_stable seq)
    (Observe.Metrics.render_stable par);
  let row t =
    match Observe.Metrics.snapshot t with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)
  in
  let rs = row seq and rp = row par in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f merged = sequential" (p *. 100.))
        (Observe.Metrics.quantile rs p)
        (Observe.Metrics.quantile rp p))
    [ 0.5; 0.9; 0.99 ];
  let q50 = Observe.Metrics.quantile rs 0.5 in
  let q90 = Observe.Metrics.quantile rs 0.9 in
  let q99 = Observe.Metrics.quantile rs 0.99 in
  check_bool "quantiles are ordered" true (q50 <= q90 && q90 <= q99);
  check_bool "p99 <= max" true (q99 <= rs.Observe.Metrics.vmax)

(* ------------------------------------------------------------------ *)
(* Series: downsample/merge commutation *)

(* Two point streams with globally distinct ticks — the invariant the
   recorder actually runs under: merge sources are task buffers over
   partitioned work units (disjoint ordinals) or distinctly labelled
   sweep cells, so one tick never arrives from two sources. Commutation
   of downsampling with merging is only claimed (and only true) under
   that invariant: with colliding ticks, the positional last-write-wins
   in [push] depends on which neighbours survived the filter. *)
let gen_disjoint_points =
  QCheck2.Gen.(
    let* ticks = list_size (int_range 0 40) (int_range 0 60) in
    let ticks = List.sort_uniq compare ticks in
    let* tagged =
      flatten_l
        (List.map
           (fun tick ->
             let* v = map float_of_int (int_range (-50) 50) in
             let* left = bool in
             return (tick, v, left))
           ticks)
    in
    return
      ( List.filter_map (fun (t, v, l) -> if l then Some (t, v) else None) tagged,
        List.filter_map (fun (t, v, l) -> if l then None else Some (t, v)) tagged
      ))

let mk_recorder pts =
  let t = Observe.Series.create ~capacity:10_000 () in
  Observe.Series.with_current t (fun () ->
      List.iter (fun (tick, v) -> Observe.Series.sample "s" ~tick v) pts);
  t

let render t = Observe.Series.render_stable t

let prop_downsample_merge_commute =
  QCheck2.Test.make ~name:"downsample (merge a b) = merge (downsample a) \
                           (downsample b)" ~count:300 gen_disjoint_points
    (fun (pa, pb) ->
      Observe.Series.enable ();
      Fun.protect ~finally:Observe.Series.disable @@ fun () ->
      let path1 =
        let dst = mk_recorder pa in
        Observe.Series.merge_into dst (mk_recorder pb);
        Observe.Series.downsample dst;
        render dst
      in
      let path2 =
        let dst = mk_recorder pa in
        Observe.Series.downsample dst;
        let src = mk_recorder pb in
        Observe.Series.downsample src;
        Observe.Series.merge_into dst src;
        render dst
      in
      String.equal path1 path2)

(* Overflow downsampling is deterministic: stride doubles until the
   count fits, and only ticks on the stride survive. *)
let test_capacity_overflow () =
  Observe.Series.enable ();
  Fun.protect ~finally:Observe.Series.disable @@ fun () ->
  let t = Observe.Series.create ~capacity:4 () in
  Observe.Series.with_current t (fun () ->
      for tick = 0 to 20 do
        Observe.Series.sample "s" ~tick (float_of_int tick)
      done);
  match Observe.Series.rows t with
  | [ r ] ->
    check_bool "within capacity" true (List.length r.Observe.Series.points <= 4);
    check_bool "stride grew" true (r.Observe.Series.stride > 1);
    List.iter
      (fun (p : Observe.Series.point) ->
        check_int
          (Printf.sprintf "tick %d on stride" p.Observe.Series.tick)
          0
          (p.Observe.Series.tick mod r.Observe.Series.stride);
        Alcotest.(check (float 0.))
          "value kept with its tick"
          (float_of_int p.Observe.Series.tick)
          p.Observe.Series.value)
      r.Observe.Series.points
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

(* Auto-tick series renumber on merge replay: two task buffers merged in
   input order reproduce the sequential 0..n-1 numbering. *)
let test_auto_tick_renumber () =
  Observe.Series.enable ();
  Fun.protect ~finally:Observe.Series.disable @@ fun () ->
  let record vs =
    let b = Observe.Series.task_buffer () in
    Observe.Series.with_current b (fun () ->
        List.iter (Observe.Series.sample_auto "a") vs);
    b
  in
  let dst = Observe.Series.create () in
  Observe.Series.merge_into dst (record [ 10.; 11.; 12. ]);
  Observe.Series.merge_into dst (record [ 13.; 14. ]);
  match Observe.Series.rows dst with
  | [ r ] ->
    check_str "ticks renumbered in arrival order" "0:10,1:11,2:12,3:13,4:14"
      (String.concat ","
         (List.map
            (fun (p : Observe.Series.point) ->
              Printf.sprintf "%d:%.0f" p.Observe.Series.tick
                p.Observe.Series.value)
            r.Observe.Series.points))
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Jobs-invariance wall: series and quantile-bearing metric renders *)

(* Run [f] with clean, enabled recorders; return both canonical stable
   renderings (metrics now include p50/p90/p99 on histogram rows). *)
let trajectory_snapshot f =
  Observe.Metrics.reset Observe.Metrics.root;
  Observe.Series.reset Observe.Series.root;
  Observe.Series.enable ();
  Fun.protect ~finally:Observe.Series.disable (fun () -> ignore (f ()));
  Observe.Metrics.render_stable Observe.Metrics.root
  ^ "--\n"
  ^ Observe.Series.render_stable Observe.Series.root

let assert_trajectory_invariant name f =
  let baseline = trajectory_snapshot (fun () -> f 1) in
  check_bool (name ^ ": baseline records series") true
    (String.length baseline > 4);
  List.iter
    (fun jobs ->
      check_str
        (Printf.sprintf "%s: jobs=%d = jobs=1" name jobs)
        baseline
        (trajectory_snapshot (fun () -> f jobs)))
    job_counts

let small = { Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }

let test_scan_series_jobs_invariant () =
  (* tc holds (full scan, every base group commits); comp-tc is violated
     (cancelled search: only groups up to the winning index commit). *)
  List.iter
    (fun (name, q) ->
      assert_trajectory_invariant ("held/witness scan " ^ name) (fun jobs ->
          Checker.check_exhaustive ~bounds:small ~jobs Classes.Plain q))
    [ ("tc", Zoo.tc); ("comp-tc", Zoo.comp_tc) ]

let net2 = Distributed.network_of_ints [ 101; 102 ]

let test_faulty_sweep_series_jobs_invariant () =
  let input = Graph_gen.of_edges [ (1, 2); (2, 3); (5, 1) ] in
  let policy = Network.Policy.hash_fact Graph_gen.schema net2 in
  let cells =
    List.map
      (fun (label, sched) -> (label, policy, sched))
      [
        ("rr", Network.Run.Round_robin);
        ("random", Network.Run.Random { seed = 1; steps = 40 });
        ("stingy", Network.Run.Stingy { seed = 2; steps = 60 });
      ]
  in
  assert_trajectory_invariant "faulty sweep" (fun jobs ->
      Network.Run.sweep ~jobs ~faults:Network.Fault.default
        ~variant:Network.Config.policy_aware
        ~transducer:(Strategies.Broadcast.transducer Zoo.tc)
        ~input cells)

(* ------------------------------------------------------------------ *)
(* Float round-trip: bench wall clocks are bit-exact through export →
   report ingestion, and non-finite values cannot enter a report. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let bench_doc wall_repr =
  Printf.sprintf
    {|{"schema":"calm-bench/v1","quick":true,"jobs":1,"experiments":[{"id":"E1","wall_s":%s,"metrics":{"monotone.probes":7}}]}|}
    wall_repr

let gen_wall =
  QCheck2.Gen.(
    oneof
      [
        map Float.abs float;
        map (fun f -> Float.abs f *. 1e-9) float;
        oneofl [ 0.; 0.1285; 1.5; 1e-300; 1.7e308; 4.2 ];
      ])

let prop_wall_roundtrip =
  QCheck2.Test.make
    ~name:"bench wall_s survives export -> report ingestion bit-exactly"
    ~count:500 gen_wall (fun w ->
      let doc = bench_doc (Observe.Json.to_string (Observe.Json.Float w)) in
      match Observe.Report.load_bench ~path:"gen.json" doc with
      | Error _ -> false
      | Ok b -> (
        match b.Observe.Report.experiments with
        | [ e ] ->
          Int64.equal (Int64.bits_of_float w)
            (Int64.bits_of_float e.Observe.Report.wall_s)
        | _ -> false))

let test_nonfinite_walls_rejected () =
  (* The printer never emits a non-finite number. *)
  List.iter
    (fun f ->
      check_str "non-finite prints as null" "null"
        (Observe.Json.to_string (Observe.Json.Float f)))
    [ nan; infinity; neg_infinity ];
  (* A crafted literal that parses to infinity is refused with a clear
     error instead of silently reported on. *)
  match Observe.Report.load_bench ~path:"bad.json" (bench_doc "1e999") with
  | Ok _ -> Alcotest.fail "infinite wall_s accepted"
  | Error m -> check_bool "error names the problem" true (contains m "non-finite")

(* ------------------------------------------------------------------ *)
(* Validators and the regression diff *)

let test_series_jsonl_validate () =
  Observe.Series.enable ();
  Fun.protect ~finally:Observe.Series.disable @@ fun () ->
  let t = Observe.Series.create () in
  Observe.Series.with_current t (fun () ->
      List.iter
        (fun tick ->
          Observe.Series.sample "net.round_pending"
            ~labels:[ ("cell", "rr") ]
            ~tick
            (float_of_int (tick * 2)))
        [ 0; 1; 2 ];
      Observe.Series.sample ~stable:false "scan.wall" ~tick:0 0.25);
  let doc = Observe.Series.to_jsonl t in
  (match Observe.Schema_check.validate_series_jsonl doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exporter output rejected: %s" m);
  List.iter
    (fun (what, bad) ->
      check_bool ("rejects " ^ what) true
        (Result.is_error (Observe.Schema_check.validate_series_jsonl bad)))
    [
      ("empty document", "");
      ("wrong header", {|{"schema":"calm-metrics/v1"}|});
      ( "stride 0",
        {|{"schema":"calm-series/v1"}
{"series":"s","labels":{},"stable":true,"stride":0,"points":[[0,1.0]]}|} );
      ( "malformed point",
        {|{"schema":"calm-series/v1"}
{"series":"s","labels":{},"stable":true,"stride":1,"points":[[1]]}|} );
      ( "missing stable",
        {|{"schema":"calm-series/v1"}
{"series":"s","labels":{},"stride":1,"points":[[0,1.0]]}|} );
      ( "non-string label",
        {|{"schema":"calm-series/v1"}
{"series":"s","labels":{"k":3},"stable":true,"stride":1,"points":[[0,1.0]]}|}
      );
    ]

(* [dune runtest] runs from _build/default/test, [dune exec] from the
   workspace root — locate the baseline relative to either. *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
    Alcotest.failf "file not found at any of: %s"
      (String.concat ", " candidates)

let baseline_file () =
  locate [ "../bench/baseline.json"; "bench/baseline.json" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_bench_exn path =
  match Observe.Report.load_bench ~path (read_file path) with
  | Ok b -> b
  | Error m -> Alcotest.fail m

(* The committed baseline under another path, each experiment
   rewritten. *)
let rewritten path f =
  let b = load_bench_exn (baseline_file ()) in
  (b, { b with Observe.Report.path; experiments = List.map f b.experiments })

(* One integer guarded row of one experiment raised by one. *)
let bump id metric (e : Observe.Report.experiment) =
  if e.id <> id then e
  else
    {
      e with
      metrics =
        List.map
          (fun (name, v) ->
            match v with
            | Observe.Json.Int n when name = metric ->
              (name, Observe.Json.Int (n + 1))
            | _ -> (name, v))
          e.metrics;
    }

(* The seeded regression CI also checks: E12's monotone.probes raised by
   one must be the one regression flagged. *)
let test_report_diff_trajectory () =
  let older, newer = rewritten "regressed.json" (bump "E12" "monotone.probes") in
  let regressions, compared = Observe.Report.diff [ older; newer ] in
  check_bool "baseline was actually compared" true (compared > 50);
  match regressions with
  | [ r ] ->
    check_str "regressed experiment" "E12" r.Observe.Report.experiment;
    check_str "regressed metric" "monotone.probes" r.Observe.Report.metric;
    check_bool "rendering mentions the metric" true
      (contains
         (Observe.Report.render_diff regressions 1)
         "monotone.probes")
  | rs -> Alcotest.failf "expected exactly one regression, got %d"
            (List.length rs)

(* The gate compares guarded rows only. A guarded row the older file
   has and the newer one lacks is a regression, not a skipped row. *)
let test_report_diff_missing_row () =
  let older, newer =
    rewritten "dropped.json" (fun (e : Observe.Report.experiment) ->
        if e.id = "E12" then
          { e with metrics = List.remove_assoc "monotone.probes" e.metrics }
        else e)
  in
  match Observe.Report.diff [ older; newer ] with
  | [ r ], _ ->
    check_str "regressed experiment" "E12" r.Observe.Report.experiment;
    check_str "regressed metric" "monotone.probes" r.Observe.Report.metric;
    check_str "newer side" "<missing>" r.Observe.Report.after
  | rs, _ ->
    Alcotest.failf "expected exactly one regression, got %d" (List.length rs)

(* One wall-clock sample per experiment cannot tell a slowdown from a
   noisy machine, so wall growth alone never regresses. *)
let test_report_diff_ignores_walls () =
  let older, newer =
    rewritten "slower.json" (fun (e : Observe.Report.experiment) ->
        { e with wall_s = 3. *. e.wall_s })
  in
  let regressions, compared = Observe.Report.diff [ older; newer ] in
  check_int "no regression from walls x3" 0 (List.length regressions);
  check_bool "guarded rows were compared" true (compared > 0)

(* The network and explorer counters are guarded: one more expanded
   configuration in E19 is a semantic change. *)
let test_report_diff_flags_explore_row () =
  let older, newer = rewritten "explored.json" (bump "E19" "explore.expanded") in
  match Observe.Report.diff [ older; newer ] with
  | [ r ], _ ->
    check_str "regressed experiment" "E19" r.Observe.Report.experiment;
    check_str "regressed metric" "explore.expanded" r.Observe.Report.metric
  | rs, _ ->
    Alcotest.failf "expected exactly one regression, got %d" (List.length rs)

(* Experiment ids are unique per file: with a repeated E12 the gate
   would compare only the first copy, so the validator, and with it
   [validate --kind bench] and [report], refuses the document. *)
let test_duplicate_ids_rejected () =
  let doc =
    {|{"schema":"calm-bench/v1","quick":true,"jobs":1,"experiments":[
      {"id":"E12","wall_s":0.1,"metrics":{"monotone.probes":7}},
      {"id":"E12","wall_s":0.1,"metrics":{"monotone.probes":8}}]}|}
  in
  (match Observe.Json.of_string doc with
  | Error m -> Alcotest.failf "test document does not parse: %s" m
  | Ok j -> (
    match Observe.Schema_check.validate_bench j with
    | Ok () -> Alcotest.fail "repeated experiment id accepted"
    | Error m -> check_bool "error names the id" true (contains m "E12")));
  check_bool "report refuses it" true
    (Result.is_error (Observe.Report.load_bench ~path:"dup.json" doc))

let test_report_renderers () =
  let history = [ load_bench_exn (baseline_file ()) ] in
  let md = Observe.Report.markdown history in
  check_bool "markdown lists E12" true (contains md "| E12 |");
  let series =
    let t = Observe.Series.create () in
    Observe.Series.enable ();
    Fun.protect ~finally:Observe.Series.disable (fun () ->
        Observe.Series.with_current t (fun () ->
            List.iter
              (fun tick ->
                Observe.Series.sample "net.round_pending" ~tick
                  (float_of_int tick))
              [ 0; 1; 2; 3 ]));
    Observe.Series.to_jsonl t
  in
  let html = Observe.Report.html ~series history in
  check_bool "dashboard is html" true (contains html "<!doctype html>");
  check_bool "dashboard has sparklines" true (contains html "<svg");
  check_bool "dashboard shows the series" true
    (contains html "net.round_pending");
  check_bool "dashboard escapes" true (not (contains html "<script"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "series"
    [
      ( "histogram",
        [
          Alcotest.test_case "merged quantiles exact" `Quick
            test_quantile_merge_exact;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_bucket_roundtrip; prop_bucket_monotone ] );
      ( "recorder",
        [
          Alcotest.test_case "capacity overflow" `Quick test_capacity_overflow;
          Alcotest.test_case "auto ticks renumber on merge" `Quick
            test_auto_tick_renumber;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_downsample_merge_commute ] );
      ( "determinism-wall",
        [
          Alcotest.test_case "scan series across jobs" `Slow
            test_scan_series_jobs_invariant;
          Alcotest.test_case "faulty sweep series across jobs" `Quick
            test_faulty_sweep_series_jobs_invariant;
        ] );
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest [ prop_wall_roundtrip ]
        @ [
            Alcotest.test_case "non-finite walls rejected" `Quick
              test_nonfinite_walls_rejected;
          ] );
      ( "report",
        [
          Alcotest.test_case "series jsonl accept/reject" `Quick
            test_series_jsonl_validate;
          Alcotest.test_case "diff trajectory + fixture" `Quick
            test_report_diff_trajectory;
          Alcotest.test_case "diff flags a missing guarded row" `Quick
            test_report_diff_missing_row;
          Alcotest.test_case "diff ignores wall growth" `Quick
            test_report_diff_ignores_walls;
          Alcotest.test_case "diff flags an explore row" `Quick
            test_report_diff_flags_explore_row;
          Alcotest.test_case "duplicate experiment ids rejected" `Quick
            test_duplicate_ids_rejected;
          Alcotest.test_case "markdown + dashboard" `Quick
            test_report_renderers;
        ] );
    ]
