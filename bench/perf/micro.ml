(* Outside-in microbenches: public functions of the relational, network
   and parallel layers timed on state captured from a workload's final
   pass. Each figure is the median of [rounds] rounds; a round repeats
   the call until [budget_ns] has elapsed and reports time per call. *)

open Relational

let rounds = 5

let per_call_ns ~budget_ns f =
  let round () =
    let t0 = Tracer.now_ns () in
    let n = ref 0 in
    while Tracer.now_ns () - t0 < budget_ns do
      ignore (Sys.opaque_identity (f ()));
      incr n
    done;
    float_of_int (Tracer.now_ns () - t0) /. float_of_int !n
  in
  let xs = List.sort compare (List.init rounds (fun _ -> round ())) in
  List.nth xs (rounds / 2)

(* Time per element of [items] for [f] applied to each, in µs. *)
let per_item_us ~budget_ns items f =
  match items with
  | [] -> 0.
  | _ ->
    let n = float_of_int (List.length items) in
    per_call_ns ~budget_ns (fun () -> List.iter (fun x -> ignore (f x)) items)
    /. n /. 1e3

(* A structurally equal copy that shares no sets with the original, so
   equality is decided by comparing contents. *)
let copy_config (c : Network.Config.t) =
  {
    Network.Config.state =
      Value.Map.map (fun i -> Instance.of_list (Instance.to_list i)) c.state;
    buffer =
      Value.Map.map (fun b -> Multiset.of_list (Multiset.to_list b)) c.buffer;
  }

let relational ~budget_ns (c : Workloads.captured) =
  let unions = List.map (fun (s, i) -> (Instance.union s i, i)) c.pairs in
  let multisets =
    List.map2
      (fun b (s, _) -> (b, Multiset.of_instance s))
      c.buffers c.pairs
  in
  [
    ( "instance.union_us",
      per_item_us ~budget_ns c.pairs (fun (s, i) -> Instance.union s i) );
    ( "instance.diff_us",
      per_item_us ~budget_ns unions (fun (u, i) -> Instance.diff u i) );
    ( "instance.restrict_us",
      per_item_us ~budget_ns unions (fun (u, _) ->
          Instance.restrict u c.restrict_to) );
    ( "multiset.union_us",
      per_item_us ~budget_ns multisets (fun (a, b) -> Multiset.union a b) );
  ]

(* Config.transition with full-buffer delivery and as a heartbeat at up to
   64 sampled nodes; equal and outputs on the whole configuration — the
   per-round snapshot and quiescence work of Run. *)
let network ~budget_ns (c : Workloads.captured) =
  match c.net with
  | None ->
    [ ("config.transition_us", 0.); ("config.equal_us", 0.);
      ("config.outputs_us", 0.) ]
  | Some n ->
    let open Network in
    let nodes = List.map fst (Value.Map.bindings n.config.Config.state) in
    let step = max 1 (List.length nodes / 64) in
    let sampled = List.filteri (fun i _ -> i mod step = 0) nodes in
    let deliveries =
      List.concat_map
        (fun x -> [ (x, Config.buffer_of n.config x); (x, Multiset.empty) ])
        sampled
    in
    let transition (x, deliver) =
      Config.transition ~variant:n.variant ~policy:n.policy
        ~transducer:n.transducer ~input:n.input n.config ~node:x ~deliver
    in
    let copy = copy_config n.config in
    let schema = n.transducer.Transducer.schema in
    Observe.Metrics.silenced (fun () ->
        [
          ( "config.transition_us",
            per_item_us ~budget_ns deliveries transition );
          ( "config.equal_us",
            per_item_us ~budget_ns [ copy ] (Config.equal n.config) );
          ( "config.outputs_us",
            per_item_us ~budget_ns [ n.config ] (Config.outputs schema) );
        ])

(* Per-task overhead of Pool.map at jobs 2 over no-op tasks, against
   List.map. *)
let pool ~budget_ns =
  let tasks = List.init 256 Fun.id in
  let seq = per_call_ns ~budget_ns (fun () -> List.map Fun.id tasks) in
  let par =
    Parallel.Pool.with_pool ~jobs:2 (fun p ->
        per_call_ns ~budget_ns (fun () -> Parallel.Pool.map p Fun.id tasks))
  in
  [ ("pool.map_task_us", (par -. seq) /. 256. /. 1e3) ]

let all ~budget_ns captured =
  relational ~budget_ns captured @ network ~budget_ns captured
  @ pool ~budget_ns
