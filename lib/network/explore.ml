(* Bounded model checking by breadth-first search over support-abstracted
   configurations. Two tables, both private to one [check], carry the
   speed:
   - a transition changes only its own node, through the four transducer
     queries over that node's visible instance, so each node's reaction
     is memoised on (node, state, delivered support); successors and the
     fair continuations re-deliver the same few supports over and over;
   - the visited set hashes configurations ([Config.hash], with
     [Config.equal] on a collision).
   BFS order, successor lists and the continuation rule decide every
   verdict and counter, and neither table changes them. *)

open Relational

type verdict =
  | Consistent of { configs : int }
  | Wrong_output of { config : Config.t; extra : Fact.t }
  | Stuck of { config : Config.t; missing : Fact.t }
  | Out_of_budget of { configs : int }

module Visited = Hashtbl.Make (struct
  type t = Config.t

  let equal = Config.equal
  let hash = Config.hash
end)

(* A reaction's key: the node, its state and the delivered support,
   digested once when the key is built, outside the table's lock. *)
type key = {
  digest : int;
  node : Value.t;
  state : Instance.t;
  delivered : Fact.Set.t;
}

let key node state delivered =
  {
    digest =
      (((Value.hash node * 31) + Instance.hash state) * 31)
      + Instance.hash (Instance.of_set delivered);
    node;
    state;
    delivered;
  }

module Reactions = Hashtbl.Make (struct
  type t = key

  let hash k = k.digest

  let equal a b =
    a.digest = b.digest
    && Value.equal a.node b.node
    && (a.state == b.state || Instance.equal a.state b.state)
    && Fact.Set.equal a.delivered b.delivered
end)

exception Found of verdict

(* Telemetry (all stable): BFS shape, not simulation detail. The inner
   what-if simulation (successor steps, fair-continuation replays) runs
   under [Metrics.silenced]: which reactions hit the memo depends on how
   the pool's domains interleave, so anything the transducer queries
   record there would be jobs-dependent. What every execution shares is
   the round-structured search itself, and that is what we count. *)
let m_expanded = Observe.Metrics.counter "explore.expanded"
let m_dedup = Observe.Metrics.counter "explore.dedup_hits"
let m_frontier = Observe.Metrics.histogram "explore.frontier"

let check ?(max_configs = 20_000) ?jobs ~variant ~policy ~transducer ~query
    ~input () =
  let network = Policy.network policy in
  let expected = Query.apply query input in
  let schema = transducer.Transducer.schema in
  (* Its one table is lock-guarded, so the parallel mode's domains share
     it. *)
  let ctx = Config.prepare ~variant ~policy ~transducer ~input in
  (* The transducer's components are queries, so a reaction is a pure
     function of its key. The pool's domains share the table; two that
     miss on one key compute the same reaction. *)
  let reactions = Reactions.create 1024 in
  let lock = Mutex.create () in
  let react node state delivered =
    let k = key node state delivered in
    match Mutex.protect lock (fun () -> Reactions.find_opt reactions k) with
    | Some r -> r
    | None ->
      let r = Config.react ctx ~node state delivered in
      Mutex.protect lock (fun () -> Reactions.replace reactions k r);
      r
  in
  (* Buffers are kept as their supports, every fact once: fair senders
     regenerate undelivered copies, and the transducers considered here
     read only the support of what is delivered, so multiplicities add
     no reachable knowledge states — but they would make the space
     infinite. Delivering a sub-support keeps a buffer a support;
     sending adds only the facts a buffer lacks. *)
  let send sent b =
    Instance.fold
      (fun f b -> if Multiset.mem f b then b else Multiset.add f b)
      sent b
  in
  let step config node deliver =
    let state, sent =
      react node (Config.state_of config node) (Multiset.support deliver)
    in
    let consume b =
      if Multiset.is_empty deliver then b else Multiset.diff b deliver
    in
    let buffer = config.Config.buffer in
    {
      Config.state = Value.Map.add node state config.Config.state;
      buffer =
        (if Instance.is_empty sent then
           Value.Map.add node (consume (Config.buffer_of config node)) buffer
         else
           Value.Map.mapi
             (fun y b -> if Value.equal y node then consume b else send sent b)
             buffer);
    }
  in
  (* Complete per-node delivery choices: nothing, everything, or any
     single buffered fact. Single-fact deliveries subsume arbitrary
     submultisets for reachability of knowledge states: any submultiset
     delivery is equivalent to a set of states reachable via singleton
     deliveries interleaved with heartbeats, because D only sees the
     support of what has been delivered and stored. *)
  let successors config =
    List.concat_map
      (fun node ->
        let buffer = Config.buffer_of config node in
        let singletons =
          Fact.Set.fold
            (fun f acc -> Multiset.add f Multiset.empty :: acc)
            (Multiset.support buffer) []
        in
        List.map (step config node) (Multiset.empty :: buffer :: singletons))
      network
  in
  (* The canonical fair continuation: full-delivery round-robin rounds
     until a round changes nothing, at most 200; returns the final
     outputs. *)
  let full_round config =
    List.fold_left
      (fun config node -> step config node (Config.buffer_of config node))
      config network
  in
  let final_outputs config =
    let rec go c rounds =
      let c' = full_round c in
      if rounds = 1 || Config.equal c c' then Config.outputs schema c'
      else go c' (rounds - 1)
    in
    go config 200
  in
  let inspect config =
    let out = Config.outputs schema config in
    match Instance.to_list (Instance.diff out expected) with
    | extra :: _ -> Some (Wrong_output { config; extra })
    | [] -> (
      match Instance.to_list (Instance.diff expected (final_outputs config)) with
      | missing :: _ -> Some (Stuck { config; missing })
      | [] -> None)
  in
  (* Round-structured BFS, shared by both execution modes: expand the
     whole frontier (output inspection, fair-continuation check,
     successor computation — the expensive part), then a cheap
     sequential merge dedups successors and checks the budget in exactly
     the order the frontier was expanded. The parallel mode only swaps
     the expansion mapper for [Pool.map], so verdicts, certificate
     configs, visited counts — and the [explore.*] metrics — are
     identical under any [jobs]. *)
  let bfs mapper =
    let start = Config.start network in
    let visited = Visited.create 4096 in
    Visited.replace visited start ();
    let frontier = ref [ start ] in
    (* Per-depth trajectory: both the frontier sample and the wave's
       dedup count happen in the sequential merge, so the series is
       identical under any [jobs]. *)
    let depth = ref 0 in
    try
      while !frontier <> [] do
        Observe.Metrics.observe m_frontier
          (float_of_int (List.length !frontier));
        if Observe.Series.is_enabled () then
          Observe.Series.sample "explore.frontier" ~tick:!depth
            (float_of_int (List.length !frontier));
        let expanded =
          mapper
            (fun c ->
              Observe.Metrics.silenced (fun () -> (inspect c, successors c)))
            !frontier
        in
        let wave_dedup = ref 0 in
        let next = ref [] in
        List.iter
          (fun (verdict, succs) ->
            if Visited.length visited > max_configs then
              raise
                (Found (Out_of_budget { configs = Visited.length visited }));
            Observe.Metrics.incr m_expanded;
            (match verdict with Some v -> raise (Found v) | None -> ());
            List.iter
              (fun c ->
                if Visited.mem visited c then begin
                  Observe.Metrics.incr m_dedup;
                  incr wave_dedup
                end
                else begin
                  Visited.replace visited c ();
                  next := c :: !next
                end)
              succs)
          expanded;
        if Observe.Series.is_enabled () then
          Observe.Series.sample "explore.dedup" ~tick:!depth
            (float_of_int !wave_dedup);
        incr depth;
        frontier := List.rev !next
      done;
      Consistent { configs = Visited.length visited }
    with Found v -> v
  in
  match jobs with
  | Some j when j > 1 ->
    Parallel.Pool.with_pool ~jobs:j (fun pool ->
        bfs (fun f frontier -> Parallel.Pool.map pool f frontier))
  | _ -> bfs List.map

let verdict_to_string = function
  | Consistent { configs } ->
    Printf.sprintf "consistent (%d configurations exhausted)" configs
  | Wrong_output { extra; _ } ->
    Printf.sprintf "wrong output: %s" (Fact.to_string extra)
  | Stuck { missing; _ } ->
    Printf.sprintf "stuck: %s never produced" (Fact.to_string missing)
  | Out_of_budget { configs } ->
    Printf.sprintf "inconclusive: budget exhausted at %d configurations"
      configs
