(* Reference model checker: [Explore.check] as it stood before the
   per-check reaction memo and the hashed visited set, kept as a slow
   test-only oracle in the style of [Reftransition]. Every successor and
   every fair-continuation round re-runs the four transducer queries
   through [Config.step], the visited set is a [Config.compare] tree, and
   fair continuations are cached per configuration. The differential
   wall in test_network.ml holds [Explore.check] to it: same verdict,
   certificate and [explore.*] counters.

   The departures from the original are that the verdict constructors
   are [Explore]'s own, so the wall compares them directly, and that the
   parallel mode is gone, as it is from [Explore]. *)

open Relational
open Network
open Explore

module Cset = Set.Make (struct
  type t = Config.t

  let compare = Config.compare
end)

module Cmap = Map.Make (struct
  type t = Config.t

  let compare = Config.compare
end)

exception Found of verdict

(* Telemetry (all stable): BFS shape, not simulation detail. The inner
   what-if simulation (successor steps, fair-continuation replays) runs
   under [Metrics.silenced], as it does in [Explore], whose memo decides
   which steps run at all. What both share is the round-structured
   search itself, and that is what we count. *)
let m_expanded = Observe.Metrics.counter "explore.expanded"
let m_dedup = Observe.Metrics.counter "explore.dedup_hits"
let m_frontier = Observe.Metrics.histogram "explore.frontier"

let check ?(max_configs = 20_000) ~variant ~policy ~transducer ~query ~input
    () =
  let network = Policy.network policy in
  let expected = Query.apply query input in
  let schema = transducer.Transducer.schema in
  (* Configurations are canonicalized to buffer supports: fair senders
     regenerate undelivered copies, and the transducers considered here
     read only the support of what is delivered, so multiplicities add no
     reachable knowledge states — but they would make the space
     infinite. *)
  let canonical config =
    {
      config with
      Config.buffer =
        Value.Map.map
          (fun b ->
            Fact.Set.fold
              (fun f acc -> Multiset.add f acc)
              (Multiset.support b) Multiset.empty)
          config.Config.buffer;
    }
  in
  let ctx = Config.prepare ~variant ~policy ~transducer ~input in
  let step config node deliver =
    canonical (fst (Config.step ctx config ~node ~deliver))
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
     until the round-level snapshot repeats; returns the final outputs. *)
  let final_cache = ref Cmap.empty in
  let full_round config =
    List.fold_left
      (fun config node -> step config node (Config.buffer_of config node))
      config network
  in
  let snapshot c =
    (c.Config.state, Value.Map.map Multiset.support c.Config.buffer)
  in
  let snapshot_equal (s1, b1) (s2, b2) =
    Value.Map.equal Instance.equal s1 s2
    && Value.Map.equal Fact.Set.equal b1 b2
  in
  let final_outputs config =
    match Cmap.find_opt config !final_cache with
    | Some o -> o
    | None ->
      let rec go prev c budget =
        if budget = 0 then Config.outputs schema c
        else
          let c' = full_round c in
          let snap = snapshot c' in
          match prev with
          | Some p when snapshot_equal p snap -> Config.outputs schema c'
          | _ -> go (Some snap) c' (budget - 1)
      in
      let o = go None config 200 in
      final_cache := Cmap.add config o !final_cache;
      o
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
  (* Round-structured BFS: expand the whole frontier (output inspection,
     fair-continuation check, successor computation — the expensive
     part), then a cheap merge dedups successors and checks the budget
     in exactly the order the frontier was expanded. *)
  let start = Config.start network in
  let visited = ref (Cset.singleton start) in
  let frontier = ref [ start ] in
  let depth = ref 0 in
  try
    while !frontier <> [] do
      Observe.Metrics.observe m_frontier (float_of_int (List.length !frontier));
      if Observe.Series.is_enabled () then
        Observe.Series.sample "explore.frontier" ~tick:!depth
          (float_of_int (List.length !frontier));
      let expanded =
        List.map
          (fun c ->
            Observe.Metrics.silenced (fun () -> (inspect c, successors c)))
          !frontier
      in
      let wave_dedup = ref 0 in
      let next = ref [] in
      List.iter
        (fun (verdict, succs) ->
          if Cset.cardinal !visited > max_configs then
            raise (Found (Out_of_budget { configs = Cset.cardinal !visited }));
          Observe.Metrics.incr m_expanded;
          (match verdict with Some v -> raise (Found v) | None -> ());
          List.iter
            (fun c ->
              if Cset.mem c !visited then begin
                Observe.Metrics.incr m_dedup;
                incr wave_dedup
              end
              else begin
                visited := Cset.add c !visited;
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
    Consistent { configs = Cset.cardinal !visited }
  with Found v -> v
