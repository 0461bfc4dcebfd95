(* Outside-in tracing for the perf benchmark.

   Nothing inside lib/ is instrumented here: the benchmark wraps the
   closures it hands to the library (query witnesses, maintenance
   probes and evaluators, transducer queries, policy assignments) and
   times the operations it calls. Each wrapped layer keeps an exact call
   count; its time is measured on every call, or — for layers called
   more than [hot_threshold] times per pass — on a deterministic 1-in-64
   sample, scaled back up by the call count. Tallies are per domain, so
   wrapped closures running on pool workers stay race-free; the report
   sums them.

   Spans (name, start, end, parent, operation id) are kept in memory on
   the main domain and written at exit as a Chrome trace_event file. *)

open Relational

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- wrapped layers ---------------------------------------------------- *)

type layer =
  | Witness_stage
  | Witness_probe
  | Query_eval
  | Ivm_stage
  | Ivm_probe
  | Program_eval
  | Q_out
  | Q_ins
  | Q_del
  | Q_snd
  | Policy_assign

let layers =
  [
    Witness_stage; Witness_probe; Query_eval; Ivm_stage; Ivm_probe;
    Program_eval; Q_out; Q_ins; Q_del; Q_snd; Policy_assign;
  ]

let index = function
  | Witness_stage -> 0
  | Witness_probe -> 1
  | Query_eval -> 2
  | Ivm_stage -> 3
  | Ivm_probe -> 4
  | Program_eval -> 5
  | Q_out -> 6
  | Q_ins -> 7
  | Q_del -> 8
  | Q_snd -> 9
  | Policy_assign -> 10

let n_layers = List.length layers

let layer_name = function
  | Witness_stage -> "queries.witness_stage"
  | Witness_probe -> "queries.witness_probe"
  | Query_eval -> "queries.eval"
  | Ivm_stage -> "datalog.ivm_stage"
  | Ivm_probe -> "datalog.ivm_probe"
  | Program_eval -> "datalog.eval"
  | Q_out -> "transducer.q_out"
  | Q_ins -> "transducer.q_ins"
  | Q_del -> "transducer.q_del"
  | Q_snd -> "transducer.q_snd"
  | Policy_assign -> "policy.assign"

let hot_threshold = 100_000
let sample_mask = 63

(* Per-domain tallies. Only calls made directly under an operation
   (depth 0) are tallied; a wrapped closure called from inside another
   one is counted in [nested] instead, so subtracting the tallies from
   the operation time never counts an interval twice. *)
type tally = {
  calls : int array;
  sampled : int array;
  sampled_ns : int array;
  mutable depth : int;
  mutable nested : int;
}

let new_tally () =
  {
    calls = Array.make n_layers 0;
    sampled = Array.make n_layers 0;
    sampled_ns = Array.make n_layers 0;
    depth = 0;
    nested = 0;
  }

let registry = ref []
let registry_lock = Mutex.create ()

let tally_key =
  Domain.DLS.new_key (fun () ->
      let t = new_tally () in
      Mutex.lock registry_lock;
      registry := t :: !registry;
      Mutex.unlock registry_lock;
      t)

let active = Atomic.make false
let hot = Array.make n_layers false

(* -- spans ------------------------------------------------------------- *)

type span = {
  name : string;
  start_ns : int;
  dur_ns : int;
  op : int;
  parent : int;  (** -1 for an operation span *)
}

let max_child_spans = 20_000
let spans : span list ref = ref []
let child_spans = ref 0
let recording = ref false
let current_op = ref (-1)
let main_domain = Domain.self ()

let record_child l start_ns dur_ns =
  if !recording && !child_spans < max_child_spans
     && Domain.self () = main_domain && !current_op >= 0
  then begin
    incr child_spans;
    spans :=
      { name = layer_name l; start_ns; dur_ns; op = !current_op;
        parent = !current_op }
      :: !spans
  end

let wrap l f x =
  if not (Atomic.get active) then f x
  else begin
    let t = Domain.DLS.get tally_key in
    if t.depth > 0 then begin
      t.nested <- t.nested + 1;
      f x
    end
    else begin
      let i = index l in
      let c = t.calls.(i) in
      t.calls.(i) <- c + 1;
      if hot.(i) && c land sample_mask <> 0 then begin
        t.depth <- 1;
        match f x with
        | y -> t.depth <- 0; y
        | exception e -> t.depth <- 0; raise e
      end
      else begin
        t.depth <- 1;
        let t0 = now_ns () in
        let finish () =
          let dt = now_ns () - t0 in
          t.depth <- 0;
          t.sampled.(i) <- t.sampled.(i) + 1;
          t.sampled_ns.(i) <- t.sampled_ns.(i) + dt;
          record_child l t0 dt
        in
        match f x with
        | y -> finish (); y
        | exception e -> finish (); raise e
      end
    end
  end

(* -- wrapping the library's closure-carrying values --------------------- *)

let query ~eval (q : Query.t) =
  {
    q with
    Query.eval = wrap eval q.Query.eval;
    witness =
      Option.map
        (fun w ~base ~expected ->
          let probe = wrap Witness_stage (fun () -> w ~base ~expected) () in
          wrap Witness_probe probe)
        q.Query.witness;
    maintain =
      Option.map
        (fun m base -> wrap Ivm_probe (wrap Ivm_stage m base))
        q.Query.maintain;
  }

let transducer (t : Network.Transducer.t) =
  {
    t with
    Network.Transducer.q_out = wrap Q_out t.Network.Transducer.q_out;
    q_ins = wrap Q_ins t.Network.Transducer.q_ins;
    q_del = wrap Q_del t.Network.Transducer.q_del;
    q_snd = wrap Q_snd t.Network.Transducer.q_snd;
  }

(* -- pass control and readout -------------------------------------------- *)

let all_tallies () =
  Mutex.lock registry_lock;
  let ts = !registry in
  Mutex.unlock registry_lock;
  ts

let reset_tallies () =
  List.iter
    (fun t ->
      Array.fill t.calls 0 n_layers 0;
      Array.fill t.sampled 0 n_layers 0;
      Array.fill t.sampled_ns 0 n_layers 0;
      t.nested <- 0)
    (all_tallies ())

type totals = {
  layer_calls : int array;
  layer_ns : float array;  (** estimated: sampled time scaled by calls *)
  nested_calls : int;
}

let totals () =
  let calls = Array.make n_layers 0 in
  let sampled = Array.make n_layers 0 in
  let sampled_ns = Array.make n_layers 0 in
  let nested = ref 0 in
  List.iter
    (fun t ->
      for i = 0 to n_layers - 1 do
        calls.(i) <- calls.(i) + t.calls.(i);
        sampled.(i) <- sampled.(i) + t.sampled.(i);
        sampled_ns.(i) <- sampled_ns.(i) + t.sampled_ns.(i)
      done;
      nested := !nested + t.nested)
    (all_tallies ());
  {
    layer_calls = calls;
    layer_ns =
      Array.init n_layers (fun i ->
          if sampled.(i) = 0 then 0.
          else
            float_of_int sampled_ns.(i) *. float_of_int calls.(i)
            /. float_of_int sampled.(i));
    nested_calls = !nested;
  }

(* Decide which layers are sampled from one pass's call counts. *)
let set_hot (t : totals) =
  Array.iteri (fun i c -> hot.(i) <- c > hot_threshold) t.layer_calls

let start_pass ~spans:rec_spans =
  reset_tallies ();
  recording := rec_spans;
  Atomic.set active true

let stop_pass () =
  Atomic.set active false;
  recording := false;
  totals ()

let next_op = ref 0

let begin_op () =
  let id = !next_op in
  incr next_op;
  current_op := id;
  id

let end_op ~name ~id ~start_ns ~dur_ns =
  current_op := -1;
  if !recording then
    spans := { name; start_ns; dur_ns; op = id; parent = -1 } :: !spans

(* -- export --------------------------------------------------------------- *)

let chrome_json () =
  let all = List.rev !spans in
  let t0 =
    List.fold_left (fun acc s -> min acc s.start_ns) max_int all
  in
  let events =
    List.map
      (fun s ->
        {
          Observe.Sink.ts = float_of_int (s.start_ns - t0) *. 1e-9;
          dur = Some (float_of_int s.dur_ns *. 1e-9);
          track = "main";
          cat = (if s.parent < 0 then "op" else "layer");
          name = s.name;
          args =
            [
              ("op", Observe.Json.Int s.op);
              ("parent", Observe.Json.Int s.parent);
            ];
        })
      all
  in
  Observe.Sink.to_chrome events
