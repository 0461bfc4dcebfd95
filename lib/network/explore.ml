(* Bounded model checking by breadth-first search over support-abstracted
   configurations, kept as ids. Each check interns every distinct node
   state ([Instance.equal]/[Instance.hash]) and buffer support
   ([Fact.Set.equal], with a fold hash) to an int, so a configuration is
   an [int array]: the n node states' ids, then the n buffers' ids, in
   network order. Equal ids mean equal values, so the visited set hashes
   and compares 2n ints. On ids, each check memoises:
   - each node's reaction ([Config.react]) on (node index, state id,
     delivered id): a transition changes only its own node, and successors
     and the fair continuations re-deliver the same few supports. This
     is sound because the transducer's components are queries, functions
     of the visible instance alone (explore.mli);
   - each buffer's sends (buffer id ∪ sent) and single-fact consumptions
     (buffer id minus one fact);
   - each state's output restriction.
   The search runs on the calling domain, so the tables need no lock.
   No table outlives its [check]. A [Config.t] is built only for a
   certificate.
   BFS order, successor lists and the continuation rule decide every
   verdict and counter; no id orders anything. *)

open Relational

type verdict =
  | Consistent of { configs : int }
  | Wrong_output of { config : Config.t; extra : Fact.t }
  | Stuck of { config : Config.t; missing : Fact.t }
  | Out_of_budget of { configs : int }

(* Dense ids from 0 for values up to structural equality, and the value
   of each id. *)
module Interner (H : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (H)

  type t = { ids : int T.t; mutable values : H.t array }

  let create () = { ids = T.create 1024; values = [||] }

  let id t v =
    match T.find_opt t.ids v with
    | Some i -> i
    | None ->
      let i = T.length t.ids in
      if i = Array.length t.values then
        t.values <- Array.append t.values (Array.make (max 64 i) v);
      t.values.(i) <- v;
      T.add t.ids v i;
      i

  let value t i = t.values.(i)
end

module States = Interner (struct
  type t = Instance.t

  let equal = Instance.equal
  let hash = Instance.hash
end)

module Supports = Interner (struct
  type t = Fact.Set.t

  let equal = Fact.Set.equal
  let hash s = Instance.hash (Instance.of_set s)
end)

module Ints = Hashtbl.Make (Int)

module Pairs = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 31) + b
end)

module Triples = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a, b, c) (d, e, f) = a = d && b = e && c = f
  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end)

(* Two configurations over one network. *)
let same (a : int array) b =
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* The hash reads every entry: [Hashtbl.hash] would stop after 10. *)
module Visited = Hashtbl.Make (struct
  type t = int array

  let equal = same
  let hash = Array.fold_left (fun h x -> (h * 31) + x) 17
end)

exception Found of verdict

(* Telemetry (all stable): BFS shape, not simulation detail. The inner
   what-if simulation (successor steps, fair-continuation replays) runs
   under [Metrics.silenced]: whether a reaction runs the transducer
   queries or hits the memo depends on what the check met before, so
   what the queries record there would count memo misses. What the
   round-structured search itself does is what we count. *)
let m_expanded = Observe.Metrics.counter "explore.expanded"
let m_dedup = Observe.Metrics.counter "explore.dedup_hits"
let m_frontier = Observe.Metrics.histogram "explore.frontier"

let check ?(max_configs = 20_000) ?jobs:_ ~variant ~policy ~transducer ~query
    ~input () =
  let network = Policy.network policy in
  let start = Config.start network in
  let nodes = Array.of_list network in
  let n = Array.length nodes in
  let expected = Query.apply query input in
  let output = transducer.Transducer.schema.Transducer_schema.output in
  let ctx = Config.prepare ~variant ~policy ~transducer ~input in
  let states = States.create () and supports = Supports.create () in
  let reactions = Triples.create 1024 and sends = Pairs.create 1024 in
  let singles = Ints.create 1024 and outputs = Ints.create 1024 in
  let empty = Supports.id supports Fact.Set.empty in
  let start =
    Array.init (2 * n) (fun k ->
        if k < n then States.id states (Config.state_of start nodes.(k))
        else
          Supports.id supports
            (Multiset.support (Config.buffer_of start nodes.(k - n))))
  in
  (* Buffers are kept as their supports, every fact once: fair senders
     regenerate undelivered copies, and the transducers considered here
     read only the support of what is delivered, so multiplicities add
     no reachable knowledge states — but they would make the space
     infinite. Sending adds only the facts a buffer lacks. *)
  let send b sent =
    match Pairs.find_opt sends (b, sent) with
    | Some b' -> b'
    | None ->
      let b' =
        Supports.id supports
          (Fact.Set.union (Supports.value supports b)
             (Supports.value supports sent))
      in
      Pairs.replace sends (b, sent) b';
      b'
  in
  (* Node [i] of [c] takes delivered support [d] and keeps buffer
     [rest]; [c] is updated in place. The transducer's components are
     queries, so a reaction is a pure function of its key, and only a
     miss runs them. *)
  let transition c i d rest =
    let key = (i, c.(i), d) in
    let state, sent =
      match Triples.find_opt reactions key with
      | Some r -> r
      | None ->
        let state, sent =
          Config.react ctx ~node:nodes.(i) (States.value states c.(i))
            (Supports.value supports d)
        in
        let sent = Instance.fold Fact.Set.add sent Fact.Set.empty in
        let r = (States.id states state, Supports.id supports sent) in
        Triples.replace reactions key r;
        r
    in
    c.(i) <- state;
    c.(n + i) <- rest;
    if sent <> empty then
      for j = 0 to n - 1 do
        if j <> i then c.(n + j) <- send c.(n + j) sent
      done
  in
  (* Each single-fact delivery from a buffer, in descending fact order:
     the delivered singleton's id and the rest of the buffer's. *)
  let singletons b =
    match Ints.find_opt singles b with
    | Some l -> l
    | None ->
      let support = Supports.value supports b in
      let l =
        Fact.Set.fold
          (fun f acc ->
            ( Supports.id supports (Fact.Set.singleton f),
              Supports.id supports (Fact.Set.remove f support) )
            :: acc)
          support []
      in
      Ints.replace singles b l;
      l
  in
  let step c i d rest =
    let c = Array.copy c in
    transition c i d rest;
    c
  in
  (* Complete per-node delivery choices: nothing, everything, or any
     single buffered fact. Single-fact deliveries subsume arbitrary
     submultisets for reachability of knowledge states: any submultiset
     delivery is equivalent to a set of states reachable via singleton
     deliveries interleaved with heartbeats, because D only sees the
     support of what has been delivered and stored. An empty buffer
     still gives both the heartbeat and the (equal) full delivery. *)
  let successors c =
    List.concat_map
      (fun i ->
        let b = c.(n + i) in
        step c i empty b :: step c i b empty
        :: List.map (fun (d, rest) -> step c i d rest) (singletons b))
      (List.init n Fun.id)
  in
  let outputs_of c =
    let restrict s =
      match Ints.find_opt outputs s with
      | Some o -> o
      | None ->
        let o = Instance.restrict (States.value states s) output in
        Ints.replace outputs s o;
        o
    in
    let acc = ref Instance.empty in
    for i = 0 to n - 1 do
      acc := Instance.union (restrict c.(i)) !acc
    done;
    !acc
  in
  (* The canonical fair continuation: full-delivery round-robin rounds
     until a round changes nothing, at most 200; returns the final
     outputs. *)
  let full_round c =
    let c = Array.copy c in
    for i = 0 to n - 1 do
      transition c i c.(n + i) empty
    done;
    c
  in
  let final_outputs c =
    let rec go c rounds =
      let c' = full_round c in
      if rounds = 1 || same c c' then outputs_of c'
      else go c' (rounds - 1)
    in
    go c 200
  in
  let to_config c =
    let map f =
      Seq.fold_left
        (fun m (i, x) -> Value.Map.add x (f i) m)
        Value.Map.empty (Array.to_seqi nodes)
    in
    {
      Config.state = map (fun i -> States.value states c.(i));
      buffer =
        map (fun i ->
            Fact.Set.fold
              (fun f b -> Multiset.add f b)
              (Supports.value supports c.(n + i))
              Multiset.empty);
    }
  in
  let inspect c =
    match Instance.first_missing (outputs_of c) expected with
    | Some extra -> Some (Wrong_output { config = to_config c; extra })
    | None -> (
      match Instance.first_missing expected (final_outputs c) with
      | Some missing -> Some (Stuck { config = to_config c; missing })
      | None -> None)
  in
  (* Round-structured BFS: each round expands its frontier in order
     (output inspection, fair-continuation check, successors) and merges
     each configuration's successors into the visited set before the
     next one, checking the budget first. The order of the frontier thus
     fixes the verdict, its certificate, the visited count and the
     [explore.*] metrics, and so does the per-depth series. *)
  let visited = Visited.create 4096 in
  Visited.replace visited start ();
  let expand c =
    if Visited.length visited > max_configs then
      raise (Found (Out_of_budget { configs = Visited.length visited }));
    Observe.Metrics.incr m_expanded;
    Observe.Metrics.silenced (fun () ->
        match inspect c with Some v -> raise (Found v) | None -> successors c)
  in
  let rec bfs depth = function
    | [] -> Consistent { configs = Visited.length visited }
    | frontier ->
      let width = float_of_int (List.length frontier) in
      Observe.Metrics.observe m_frontier width;
      if Observe.Series.is_enabled () then
        Observe.Series.sample "explore.frontier" ~tick:depth width;
      let dedup = ref 0 in
      let merge next c =
        if Visited.mem visited c then begin
          Observe.Metrics.incr m_dedup;
          incr dedup;
          next
        end
        else begin
          Visited.replace visited c ();
          c :: next
        end
      in
      let next =
        List.fold_left
          (fun next c -> List.fold_left merge next (expand c))
          [] frontier
      in
      if Observe.Series.is_enabled () then
        Observe.Series.sample "explore.dedup" ~tick:depth
          (float_of_int !dedup);
      bfs (depth + 1) (List.rev next)
  in
  try bfs 0 [ start ] with Found v -> v

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
