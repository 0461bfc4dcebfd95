(* Aggregate bench trajectories (the committed bench/baseline.json and
   fresh runs) plus optional metrics / series / profile artifacts into a
   self-contained HTML dashboard, a markdown summary, and the guarded-row
   regression diff. Built on {!Json} only: no external deps, sparklines
   are inline SVG. *)

(* The stable metric rows guarded against drift: deterministic by
   construction (jobs- and cache-invariant), so any change against a
   committed value means the scan visited a different pair stream, found
   different violations, or maintained a different volume — a semantic
   regression, not noise. *)
let guard_metrics =
  [
    "monotone.probes";
    "monotone.pairs_scanned";
    "monotone.violations";
    "monotone.counterexample_size";
    (* Fault-layer counters: seeded plans make these deterministic. *)
    "network.dup_deliveries";
    "network.dropped";
    "network.crashes";
    "network.partition_rounds";
    (* Incremental-maintenance counters. *)
    "monotone.ivm_hits";
    "eval.ivm_applies";
    "eval.ivm_rederived";
    (* Network runs: every transition, message and round of a seeded
       scheduler. *)
    "net.transitions";
    "net.messages_sent";
    "net.deliveries";
    "net.heartbeat_steps";
    "net.rounds";
    "net.quiescence_round";
    "net.round_output_delta";
    "net.transition_output_delta";
    (* The model checker's search shape. *)
    "explore.expanded";
    "explore.frontier";
    "explore.dedup_hits";
  ]

type experiment = {
  id : string;
  wall_s : float;
  metrics : (string * Json.t) list;
}

type bench = {
  path : string;
  quick : bool;
  jobs : int;
  experiments : experiment list;
}

let ( let* ) = Result.bind

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Parse + schema-validate one bench artifact. Beyond the schema, wall
   clocks must be finite: the exporter prints non-finite floats as JSON
   null (which the schema already rejects), but "1e999" parses to
   infinity, and a report quietly averaging infinities would be worse
   than an error. *)
let load_bench ~path contents =
  let* j =
    match Json.of_string contents with
    | Ok j -> Ok j
    | Error m -> error "%s: not valid JSON: %s" path m
  in
  let* () =
    match Schema_check.validate_bench j with
    | Ok () -> Ok ()
    | Error m -> error "%s: INVALID calm-bench/v1 artifact: %s" path m
  in
  let quick = Json.member "quick" j = Some (Json.Bool true) in
  let jobs =
    match Json.member "jobs" j with Some (Json.Int n) -> n | _ -> 1
  in
  let experiments =
    match Json.member "experiments" j with
    | Some (Json.List es) ->
      List.filter_map
        (fun e ->
          match
            ( Json.member "id" e,
              Json.member "wall_s" e,
              Json.member "metrics" e )
          with
          | Some (Json.String id), Some w, Some (Json.Obj ms) ->
            let wall_s =
              match w with
              | Json.Float f -> f
              | Json.Int i -> float_of_int i
              | _ -> nan
            in
            Some { id; wall_s; metrics = ms }
          | _ -> None)
        es
    | _ -> []
  in
  let* () =
    match
      List.find_opt (fun e -> not (Float.is_finite e.wall_s)) experiments
    with
    | Some e ->
      error "%s: experiment %S has non-finite wall_s — refusing to report"
        path e.id
    | None -> Ok ()
  in
  Ok { path; quick; jobs; experiments }

let find_experiment b id = List.find_opt (fun e -> e.id = id) b.experiments

(* Union of experiment ids across the history, in order of first
   appearance. *)
let all_ids benches =
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc e -> if List.mem e.id acc then acc else acc @ [ e.id ])
        acc b.experiments)
    [] benches

(* ------------------------------------------------------------------ *)
(* Regression diff *)

type regression = {
  from_file : string;
  to_file : string;
  experiment : string;
  metric : string;  (* a guard metric name *)
  before : string;
  after : string;
}

(* Scan consecutive pairs of the (chronologically ordered) files. A
   guarded row of the older file regresses when the newer file lacks it
   (its experiment included) or holds a different value; a row newly
   appearing (instrumentation added by a later change) is not drift.
   Experiment ids are unique per file (the loader refuses repeats), so
   [find_experiment] sees the only match. Wall clocks are never
   compared: one sample per experiment cannot tell a slowdown from a
   noisy machine, and calm-perf (bench/perf) is the perf gate. *)
let diff benches =
  let compared = ref 0 in
  let regressions = ref [] in
  let rec pairs = function
    | (a : bench) :: b :: rest ->
      List.iter
        (fun (ea : experiment) ->
          let eb = find_experiment b ea.id in
          List.iter
            (fun name ->
              match List.assoc_opt name ea.metrics with
              | None -> ()
              | Some va -> (
                incr compared;
                match
                  Option.bind eb (fun e -> List.assoc_opt name e.metrics)
                with
                | Some vb when Json.equal va vb -> ()
                | vb ->
                  regressions :=
                    {
                      from_file = a.path;
                      to_file = b.path;
                      experiment = ea.id;
                      metric = name;
                      before = Json.to_string va;
                      after =
                        (match vb with
                        | Some v -> Json.to_string v
                        | None -> "<missing>");
                    }
                    :: !regressions))
            guard_metrics)
        a.experiments;
      pairs (b :: rest)
    | _ -> ()
  in
  pairs benches;
  (List.rev !regressions, !compared)

let render_diff regressions compared =
  let b = Buffer.create 256 in
  (match regressions with
  | [] when compared = 0 ->
    Buffer.add_string b
      "report-diff: no guarded metric row compared (give two or more \
       files, the older ones holding guarded rows)\n"
  | [] ->
    Buffer.add_string b
      (Printf.sprintf
         "report-diff: %d guarded metric comparisons across the trajectory, \
          no regression\n"
         compared)
  | rs ->
    Buffer.add_string b
      (Printf.sprintf "report-diff: %d regression(s) in %d comparisons:\n"
         (List.length rs) compared);
    Buffer.add_string b
      "| experiment | metric | from | to | baseline | current |\n";
    Buffer.add_string b "|---|---|---|---|---|---|\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "| %s | %s | %s | %s | %s | %s |\n" r.experiment
             r.metric
             (Filename.basename r.from_file)
             (Filename.basename r.to_file)
             r.before r.after))
      rs);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Markdown summary *)

let wall_cell = function
  | None -> "—"
  | Some (e : experiment) -> Printf.sprintf "%.4f" e.wall_s

let markdown benches =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# Bench trajectory\n\n";
  List.iter
    (fun bench ->
      Buffer.add_string b
        (Printf.sprintf "- `%s`: %d experiments, jobs=%d%s\n"
           (Filename.basename bench.path)
           (List.length bench.experiments)
           bench.jobs
           (if bench.quick then ", quick" else "")))
    benches;
  Buffer.add_string b "\n## Wall clock (seconds)\n\n";
  Buffer.add_string b
    (Printf.sprintf "| experiment | %s |\n"
       (String.concat " | "
          (List.map (fun x -> Filename.basename x.path) benches)));
  Buffer.add_string b
    (Printf.sprintf "|---|%s\n"
       (String.concat "" (List.map (fun _ -> "---|") benches)));
  List.iter
    (fun id ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s |\n" id
           (String.concat " | "
              (List.map (fun x -> wall_cell (find_experiment x id)) benches))))
    (all_ids benches);
  (match List.rev benches with
  | [] -> ()
  | latest :: _ ->
    Buffer.add_string b
      (Printf.sprintf "\n## Guarded metrics (%s)\n\n"
         (Filename.basename latest.path));
    Buffer.add_string b "| experiment | metric | value |\n|---|---|---|\n";
    List.iter
      (fun (e : experiment) ->
        List.iter
          (fun name ->
            match List.assoc_opt name e.metrics with
            | None -> ()
            | Some v ->
              Buffer.add_string b
                (Printf.sprintf "| %s | %s | %s |\n" e.id name
                   (Json.to_string v)))
          guard_metrics)
      latest.experiments);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* HTML dashboard *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* An inline-SVG sparkline: values normalized into a fixed viewbox, a
   polyline through them, no axes. Degenerate inputs (one point, all
   equal) render a flat line rather than erroring. *)
let sparkline ?(w = 120) ?(h = 24) values =
  match values with
  | [] -> "<span class=\"empty\">—</span>"
  | _ ->
    let n = List.length values in
    let vmin = List.fold_left Float.min infinity values in
    let vmax = List.fold_left Float.max neg_infinity values in
    let span = if vmax -. vmin <= 0. then 1. else vmax -. vmin in
    let fw = float_of_int w and fh = float_of_int h in
    let pt i v =
      let x =
        if n = 1 then fw /. 2.
        else 2. +. (float_of_int i *. (fw -. 4.) /. float_of_int (n - 1))
      in
      let y = fh -. 3. -. ((v -. vmin) /. span *. (fh -. 6.)) in
      Printf.sprintf "%.1f,%.1f" x y
    in
    Printf.sprintf
      "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\"><polyline \
       fill=\"none\" stroke=\"#2a6\" stroke-width=\"1.5\" points=\"%s\"/></svg>"
      w h w h
      (String.concat " " (List.mapi pt values))

(* Optional series artifact: re-ingest the calm-series/v1 JSONL and keep
   (display name, point values) per series. *)
let series_rows contents =
  match String.split_on_char '\n' contents with
  | [] -> []
  | _ :: lines ->
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match Json.of_string line with
          | Error _ -> None
          | Ok j -> (
            match (Json.member "series" j, Json.member "points" j) with
            | Some (Json.String name), Some (Json.List pts) ->
              let labels =
                match Json.member "labels" j with
                | Some (Json.Obj kvs) ->
                  String.concat ","
                    (List.filter_map
                       (fun (k, v) ->
                         match v with
                         | Json.String s ->
                           Some (Printf.sprintf "%s=%s" k s)
                         | _ -> None)
                       kvs)
                | _ -> ""
              in
              let display =
                if labels = "" then name
                else Printf.sprintf "%s{%s}" name labels
              in
              let values =
                List.filter_map
                  (function
                    | Json.List [ _; Json.Float v ] -> Some v
                    | Json.List [ _; Json.Int v ] -> Some (float_of_int v)
                    | _ -> None)
                  pts
              in
              Some (display, values)
            | _ -> None))
      lines

let html ?series ?metrics ?profile benches =
  let b = Buffer.create 8192 in
  let add = Buffer.add_string b in
  add
    "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>calm bench trajectory</title>\n\
     <style>\n\
     body{font:14px/1.5 system-ui,sans-serif;margin:2em;max-width:70em}\n\
     table{border-collapse:collapse;margin:1em 0}\n\
     th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left}\n\
     th{background:#f4f4f4}\n\
     td.num{text-align:right;font-variant-numeric:tabular-nums}\n\
     .empty{color:#999}\n\
     h2{margin-top:2em}\n\
     code{background:#f4f4f4;padding:0 .2em}\n\
     </style></head><body>\n\
     <h1>calm bench trajectory</h1>\n";
  add "<h2>Files</h2><table><tr><th>file</th><th>experiments</th>\
       <th>jobs</th><th>quick</th></tr>\n";
  List.iter
    (fun bench ->
      add
        (Printf.sprintf
           "<tr><td><code>%s</code></td><td class=\"num\">%d</td>\
            <td class=\"num\">%d</td><td>%b</td></tr>\n"
           (html_escape (Filename.basename bench.path))
           (List.length bench.experiments)
           bench.jobs bench.quick))
    benches;
  add "</table>\n";
  add "<h2>Wall clock (seconds)</h2>\n<table><tr><th>experiment</th>";
  List.iter
    (fun x ->
      add
        (Printf.sprintf "<th>%s</th>"
           (html_escape (Filename.basename x.path))))
    benches;
  add "<th>trend</th></tr>\n";
  List.iter
    (fun id ->
      add (Printf.sprintf "<tr><td>%s</td>" (html_escape id));
      let walls =
        List.filter_map
          (fun x -> Option.map (fun e -> e.wall_s) (find_experiment x id))
          benches
      in
      List.iter
        (fun x ->
          add
            (Printf.sprintf "<td class=\"num\">%s</td>"
               (wall_cell (find_experiment x id))))
        benches;
      add (Printf.sprintf "<td>%s</td></tr>\n" (sparkline walls)))
    (all_ids benches);
  add "</table>\n";
  (match List.rev benches with
  | [] -> ()
  | latest :: _ ->
    add
      (Printf.sprintf
         "<h2>Guarded metrics (%s)</h2>\n\
          <table><tr><th>experiment</th>%s</tr>\n"
         (html_escape (Filename.basename latest.path))
         (String.concat ""
            (List.map
               (fun m -> Printf.sprintf "<th>%s</th>" (html_escape m))
               guard_metrics)));
    List.iter
      (fun (e : experiment) ->
        if
          List.exists (fun m -> List.assoc_opt m e.metrics <> None)
            guard_metrics
        then begin
          add (Printf.sprintf "<tr><td>%s</td>" (html_escape e.id));
          List.iter
            (fun m ->
              add
                (Printf.sprintf "<td class=\"num\">%s</td>"
                   (match List.assoc_opt m e.metrics with
                   | None -> "<span class=\"empty\">—</span>"
                   | Some v -> html_escape (Json.to_string v))))
            guard_metrics;
          add "</tr>\n"
        end)
      latest.experiments;
    add "</table>\n");
  (match series with
  | None -> ()
  | Some contents ->
    add "<h2>Series trajectories</h2>\n\
         <table><tr><th>series</th><th>points</th><th>last</th>\
         <th>sparkline</th></tr>\n";
    List.iter
      (fun (display, values) ->
        add
          (Printf.sprintf
             "<tr><td><code>%s</code></td><td class=\"num\">%d</td>\
              <td class=\"num\">%s</td><td>%s</td></tr>\n"
             (html_escape display) (List.length values)
             (match List.rev values with
             | [] -> "—"
             | v :: _ -> Printf.sprintf "%g" v)
             (sparkline values)))
      (series_rows contents);
    add "</table>\n");
  (match metrics with
  | None -> ()
  | Some j ->
    add "<h2>Metrics snapshot</h2>\n<pre>";
    add (html_escape (Json.to_string_pretty j));
    add "</pre>\n");
  (match profile with
  | None -> ()
  | Some j ->
    add "<h2>Profile</h2>\n<pre>";
    add (html_escape (Json.to_string_pretty j));
    add "</pre>\n");
  add "</body></html>\n";
  Buffer.contents b
