open Relational

type partition = {
  from_round : int;
  rounds : int;
  groups : Value.t list list;
}

type plan = {
  seed : int;
  dup_prob : float;
  dup_copies : int;
  loss_prob : float;
  loss_delay : int;
  horizon : int;
  crashes : (Value.t * int) list;
  partitions : partition list;
}

let none =
  {
    seed = 0;
    dup_prob = 0.;
    dup_copies = 2;
    loss_prob = 0.;
    loss_delay = 2;
    horizon = 8;
    crashes = [];
    partitions = [];
  }

let is_none p =
  p.dup_prob <= 0. && p.loss_prob <= 0. && p.crashes = [] && p.partitions = []

let default =
  {
    none with
    seed = 7;
    dup_prob = 0.4;
    dup_copies = 3;
    loss_prob = 0.25;
    loss_delay = 2;
    crashes = [ (Value.int 2, 4) ];
    partitions =
      [
        {
          from_round = 2;
          rounds = 3;
          groups = [ [ Value.int 1 ]; [ Value.int 2; Value.int 3 ] ];
        };
      ];
  }

(* -- plan syntax ----------------------------------------------------- *)

let float_to_string f =
  (* Shortest round-tripping decimal keeps to_string canonical. *)
  let s = Printf.sprintf "%.12g" f in
  s

let crash_clause (n, r) = Printf.sprintf "crash=%s@%d" (Value.to_string n) r

let part_clause part =
  Printf.sprintf "part=%s@%d+%d"
    (String.concat "|"
       (List.map
          (fun g -> String.concat "," (List.map Value.to_string g))
          part.groups))
    part.from_round part.rounds

let to_string p =
  let buf = Buffer.create 64 in
  let clause s =
    if Buffer.length buf > 0 then Buffer.add_char buf ';';
    Buffer.add_string buf s
  in
  clause (Printf.sprintf "seed=%d" p.seed);
  if p.dup_prob > 0. then
    clause
      (Printf.sprintf "dup=%sx%d" (float_to_string p.dup_prob) p.dup_copies);
  if p.loss_prob > 0. then
    clause
      (Printf.sprintf "loss=%s:%d" (float_to_string p.loss_prob) p.loss_delay);
  clause (Printf.sprintf "horizon=%d" p.horizon);
  List.iter (fun c -> clause (crash_clause c)) p.crashes;
  List.iter (fun part -> clause (part_clause part)) p.partitions;
  Buffer.contents buf

let of_string s =
  let ( let* ) = Result.bind in
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of name v =
    match int_of_string_opt (String.trim v) with
    | Some i -> Ok i
    | None -> error "faults: %s is not an integer: %S" name v
  in
  let float_of name v =
    match float_of_string_opt (String.trim v) with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | Some _ -> error "faults: %s must be a probability in [0,1]: %S" name v
    | None -> error "faults: %s is not a number: %S" name v
  in
  let node_of v =
    let* i = int_of "node" v in
    Ok (Value.int i)
  in
  let split2 sep s =
    match String.index_opt s sep with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let clause p c =
    match split2 '=' (String.trim c) with
    | _, None -> error "faults: clause without '=': %S" c
    | "seed", Some v ->
      let* seed = int_of "seed" v in
      Ok { p with seed }
    | "horizon", Some v ->
      let* horizon = int_of "horizon" v in
      if horizon < 0 then error "faults: horizon must be >= 0"
      else Ok { p with horizon }
    | "dup", Some v ->
      let prob, copies = split2 'x' v in
      let* dup_prob = float_of "dup probability" prob in
      let* dup_copies =
        match copies with None -> Ok 2 | Some c -> int_of "dup copies" c
      in
      if dup_copies < 2 then error "faults: dup copies must be >= 2"
      else Ok { p with dup_prob; dup_copies }
    | "loss", Some v ->
      let prob, delay = split2 ':' v in
      let* loss_prob = float_of "loss probability" prob in
      let* loss_delay =
        match delay with None -> Ok 2 | Some d -> int_of "loss delay" d
      in
      if loss_delay < 1 then error "faults: loss delay must be >= 1"
      else Ok { p with loss_prob; loss_delay }
    | "crash", Some v -> (
      match split2 '@' v with
      | _, None -> error "faults: crash clause needs node@round: %S" v
      | n, Some r ->
        let* node = node_of n in
        let* round = int_of "crash round" r in
        if round < 0 then error "faults: crash round must be >= 0"
        else Ok { p with crashes = p.crashes @ [ (node, round) ] })
    | "part", Some v -> (
      match split2 '@' v with
      | _, None -> error "faults: part clause needs groups@round+rounds: %S" v
      | gs, Some timing ->
        let from_s, rounds_s = split2 '+' timing in
        let* from_round = int_of "partition round" from_s in
        let* rounds =
          match rounds_s with
          | None -> Ok 2
          | Some r -> int_of "partition duration" r
        in
        let* groups =
          List.fold_left
            (fun acc g ->
              let* acc = acc in
              let* nodes =
                List.fold_left
                  (fun acc n ->
                    let* acc = acc in
                    let* node = node_of n in
                    Ok (node :: acc))
                  (Ok [])
                  (String.split_on_char ',' g)
              in
              Ok (List.rev nodes :: acc))
            (Ok [])
            (String.split_on_char '|' gs)
        in
        let groups = List.rev groups in
        if from_round < 0 || rounds < 1 then
          error "faults: partition needs round >= 0 and duration >= 1"
        else
          Ok
            {
              p with
              partitions = p.partitions @ [ { from_round; rounds; groups } ];
            })
    | key, Some _ -> error "faults: unknown clause %S" key
  in
  List.fold_left
    (fun p c ->
      let* p = p in
      if String.trim c = "" then Ok p else clause p c)
    (Ok none)
    (String.split_on_char ';' s)

(* The first node of a group that a later group of the same partition
   lists again. *)
let rec overlap = function
  | [] -> None
  | g :: rest -> (
    match
      List.find_opt (fun n -> List.exists (List.exists (Value.equal n)) rest) g
    with
    | Some _ as n -> n
    | None -> overlap rest)

let check p ~network =
  let outside clause nodes =
    List.find_opt (fun n -> not (List.exists (Value.equal n) network)) nodes
    |> Option.map (fun n ->
           Printf.sprintf "%s names node %s, outside the %d-node network"
             clause (Value.to_string n) (List.length network))
  in
  let partition part =
    let clause = part_clause part in
    match outside clause (List.concat part.groups) with
    | Some _ as e -> e
    | None ->
      Option.map
        (fun n ->
          Printf.sprintf "%s puts node %s in two groups" clause
            (Value.to_string n))
        (overlap part.groups)
  in
  match
    List.find_map Fun.id
      (List.map (fun c -> outside (crash_clause c) [ fst c ]) p.crashes
      @ List.map partition p.partitions)
  with
  | None -> Ok ()
  | Some msg -> Error msg

(* -- telemetry ------------------------------------------------------- *)

let m_dup = Observe.Metrics.counter "network.dup_deliveries"
let m_dropped = Observe.Metrics.counter "network.dropped"
let m_crashes = Observe.Metrics.counter "network.crashes"
let m_partition_rounds = Observe.Metrics.counter "network.partition_rounds"

(* -- per-run state --------------------------------------------------- *)

type held_copy = {
  recipient : Value.t;
  fact : Fact.t;
  copies : int;
  release : int;
  stamps : Causal.held option;
  depth : int;
}

type state = {
  plan : plan;
  net_size : int;
  group_of : int Value.Map.t list;
      (* per partition of the plan, in order: node -> its first group *)
  rng : Random.State.t;
  mutable transitions : int;
  mutable held : held_copy list;  (* newest first *)
  mutable log : Fact.Set.t Value.Map.t;
  mutable crashes : (Value.t * int) list;
  mutable last_round : int;
}

(* Index of the first group holding each node, as a scan of the groups
   in order finds it. *)
let group_index groups =
  snd
    (List.fold_left
       (fun (i, m) g ->
         ( i + 1,
           List.fold_left
             (fun m n -> if Value.Map.mem n m then m else Value.Map.add n i m)
             m g ))
       (0, Value.Map.empty) groups)

let start plan ~network =
  {
    plan;
    net_size = max 1 (List.length network);
    group_of = List.map (fun p -> group_index p.groups) plan.partitions;
    rng = Random.State.make [| plan.seed |];
    transitions = 0;
    held = [];
    log = Value.Map.empty;
    crashes = plan.crashes;
    last_round = -1;
  }

let round st = st.transitions / st.net_size

let tick st = st.transitions <- st.transitions + 1

let partition_active_at plan r =
  List.exists
    (fun p -> r >= p.from_round && r < p.from_round + p.rounds)
    plan.partitions

let note_round st =
  let r = round st in
  if r > st.last_round then begin
    for r' = st.last_round + 1 to r do
      if partition_active_at st.plan r' then
        Observe.Metrics.incr m_partition_rounds
    done;
    st.last_round <- r
  end

let draw_dup st ~sends =
  let p = st.plan in
  if sends > 0 && p.dup_prob > 0. && round st < p.horizon then
    if Random.State.float st.rng 1.0 < p.dup_prob then begin
      (* [sends] = (fact, recipient) copy groups: count the extra copies
         actually enqueued. *)
      Observe.Metrics.incr ~by:((p.dup_copies - 1) * sends) m_dup;
      p.dup_copies
    end
    else 1
  else 1

let blocks st ~sender ~recipient =
  let r = round st in
  List.fold_left2
    (fun acc p group_of ->
      match acc with
      | Some _ -> acc
      | None ->
        if r >= p.from_round && r < p.from_round + p.rounds then
          let gs = Value.Map.find_opt sender group_of
          and gr = Value.Map.find_opt recipient group_of in
          (* A node in no group is its own singleton class, disconnected
             from everything else while the partition is up. *)
          let separated =
            match (gs, gr) with
            | Some a, Some b -> a <> b
            | None, None -> not (Value.equal sender recipient)
            | _ -> true
          in
          if separated then Some (p.from_round + p.rounds) else None
        else None)
    None st.plan.partitions st.group_of

let draw_loss st =
  let p = st.plan in
  let r = round st in
  if p.loss_prob > 0. && r < p.horizon then
    if Random.State.float st.rng 1.0 < p.loss_prob then
      Some (r + p.loss_delay)
    else None
  else None

let add_held st h =
  Observe.Metrics.incr ~by:h.copies m_dropped;
  st.held <- h :: st.held

let take_due st =
  let r = round st in
  let due, rest = List.partition (fun h -> h.release <= r) st.held in
  st.held <- rest;
  List.rev due

let record_delivery st ~node facts =
  if not (Fact.Set.is_empty facts) then
    st.log <-
      Value.Map.update node
        (fun s ->
          Some (Fact.Set.union facts (Option.value s ~default:Fact.Set.empty)))
        st.log

let crash_due st ~node =
  let r = round st in
  let due, rest =
    List.partition
      (fun (n, cr) -> Value.equal n node && cr <= r)
      st.crashes
  in
  st.crashes <- rest;
  if due <> [] then Observe.Metrics.incr ~by:(List.length due) m_crashes;
  due <> []

let redelivery st ~node =
  match Value.Map.find_opt node st.log with
  | None -> []
  | Some s -> Fact.Set.elements s

let quiescent st =
  let r = round st in
  let p = st.plan in
  st.held = [] && st.crashes = []
  && List.for_all (fun part -> r >= part.from_round + part.rounds) p.partitions
  && (p.loss_prob <= 0. || r >= p.horizon)

let held_pending st =
  List.fold_left (fun acc h -> acc + h.copies) 0 st.held

let crashes_pending st = List.length st.crashes
