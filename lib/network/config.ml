open Relational

type variant = {
  with_policy : bool;
  with_all : bool;
  with_id : bool;
}

let original = { with_policy = false; with_all = true; with_id = true }
let policy_aware = { with_policy = true; with_all = true; with_id = true }
let all_free = { with_policy = true; with_all = false; with_id = true }
let oblivious = { with_policy = false; with_all = false; with_id = false }

type t = {
  state : Instance.t Value.Map.t;
  buffer : Multiset.t Value.Map.t;
}

let start network =
  let network = Distributed.validate_network network in
  {
    state =
      List.fold_left
        (fun m x -> Value.Map.add x Instance.empty m)
        Value.Map.empty network;
    buffer =
      List.fold_left
        (fun m x -> Value.Map.add x Multiset.empty m)
        Value.Map.empty network;
  }

let state_of t x =
  match Value.Map.find_opt x t.state with
  | Some s -> s
  | None -> invalid_arg ("Config.state_of: unknown node " ^ Value.to_string x)

let buffer_of t x =
  match Value.Map.find_opt x t.buffer with
  | Some b -> b
  | None -> invalid_arg ("Config.buffer_of: unknown node " ^ Value.to_string x)

let outputs schema t =
  Value.Map.fold
    (fun _ s acc ->
      Instance.union (Instance.restrict s schema.Transducer_schema.output) acc)
    t.state Instance.empty

(* Configurations that share a node's state or buffer physically are
   common (a transition rewrites one node), so test [==] first. *)
let equal a b =
  Value.Map.equal (fun s t -> s == t || Instance.equal s t) a.state b.state
  && Value.Map.equal (fun b c -> b == c || Multiset.equal b c) a.buffer b.buffer

let compare a b =
  let c = Value.Map.compare Instance.compare a.state b.state in
  if c <> 0 then c else Value.Map.compare Multiset.compare a.buffer b.buffer

type stats = {
  messages_sent : int;
  delivered : int;
  sent_facts : Instance.t;
  output_delta : Instance.t;
}

(* Telemetry (all stable): one recording per transition, mirroring the
   [stats] record. Runs are deterministic given (policy, scheduler,
   input), so these are reproducible across [jobs] by the pool's
   buffer-merge discipline. *)
let m_transitions = Observe.Metrics.counter "net.transitions"
let m_messages = Observe.Metrics.counter "net.messages_sent"
let m_deliveries = Observe.Metrics.counter "net.deliveries"
let m_output_delta = Observe.Metrics.histogram "net.transition_output_delta"

let record_stats stats =
  Observe.Metrics.incr m_transitions;
  if stats.messages_sent > 0 then
    Observe.Metrics.incr ~by:stats.messages_sent m_messages;
  if stats.delivered > 0 then
    Observe.Metrics.incr ~by:stats.delivered m_deliveries;
  Observe.Metrics.observe m_output_delta
    (float_of_int (Instance.cardinal stats.output_delta))

(* The [All] facts the variant shows: one per node, none without [All]. *)
let all_shown variant network =
  if not variant.with_all then Instance.empty
  else
    List.fold_left
      (fun acc y ->
        Instance.add (Fact.make Transducer_schema.all_rel [ y ]) acc)
      Instance.empty network

(* [S] given [all], the variant's [All] facts. *)
let system_facts_over ~all variant policy x a =
  let open Transducer_schema in
  let base =
    if variant.with_id then Instance.add (Fact.make id_rel [ x ]) all else all
  in
  if not variant.with_policy then base
  else
    let base =
      Value.Set.fold
        (fun v acc -> Instance.add (Fact.make myadom_rel [ v ]) acc)
        a base
    in
    (* policy_R(a1..ak) for every R-fact over A that x is responsible
       for. *)
    List.fold_left
      (fun acc f ->
        if Policy.responsible policy x f then
          Instance.add (Fact.make (policy_rel (Fact.rel f)) (Fact.args f)) acc
        else acc)
      base
      (Schema.all_facts (Policy.schema policy) a)

let system_facts variant policy network x a =
  system_facts_over ~all:(all_shown variant network) variant policy x a

(* The policy-aware system facts of one node depend on (node, A) alone,
   and A changes far less often than D: fair senders re-deliver what a
   node already knows. The key is digested once. *)
type sys_key = { digest : int; node : Value.t; a : Value.Set.t }

let sys_key node a =
  {
    digest =
      Value.Set.fold
        (fun v acc -> (acc * 31) + Hashtbl.hash v)
        a (Hashtbl.hash node);
    node;
    a;
  }

module System = Hashtbl.Make (struct
  type t = sys_key

  let hash k = k.digest

  let equal k l =
    k.digest = l.digest && Value.equal k.node l.node
    && Value.Set.equal k.a l.a
end)

type ctx = {
  variant : variant;
  policy : Policy.t;
  transducer : Transducer.t;
  locals : Distributed.t;
  recipients : int;
  all : Instance.t;  (* [all_shown] *)
  system : Instance.t System.t;  (* policy-aware [S] on (node, A) *)
}

let prepare ~variant ~policy ~transducer ~input =
  let schema = transducer.Transducer.schema in
  let network = Policy.network policy in
  {
    variant;
    policy;
    transducer;
    locals =
      Policy.dist policy
        (Instance.restrict input schema.Transducer_schema.input);
    recipients = List.length network - 1;
    all = all_shown variant network;
    system = System.create 64;
  }

(* Without policy relations [S] is [Id] and [All], cheaper to build than
   to look up. *)
let system ctx x a =
  let build () = system_facts_over ~all:ctx.all ctx.variant ctx.policy x a in
  if not ctx.variant.with_policy then build ()
  else
    let k = sys_key x a in
    match System.find_opt ctx.system k with
    | Some s -> s
    | None ->
      let s = build () in
      System.replace ctx.system k s;
      s

let react ctx ~node:x s1 delivered =
  let { variant; policy; transducer; locals; _ } = ctx in
  let schema = transducer.Transducer.schema in
  let network = Policy.network policy in
  let local_input = Distributed.local locals x in
  let m = Instance.of_set delivered in
  let j = Instance.union local_input (Instance.union s1 m) in
  let a =
    let from_j = Instance.adom j in
    if variant.with_all then
      List.fold_left (fun acc y -> Value.Set.add y acc) from_j network
    else Value.Set.add x from_j
  in
  let s = system ctx x a in
  let d = Instance.union j s in
  let out_new = Instance.restrict (transducer.Transducer.q_out d) schema.Transducer_schema.output in
  let ins = Instance.restrict (transducer.Transducer.q_ins d) schema.Transducer_schema.memory in
  let del = Instance.restrict (transducer.Transducer.q_del d) schema.Transducer_schema.memory in
  let snd = Instance.restrict (transducer.Transducer.q_snd d) schema.Transducer_schema.message in
  let mem1 = Instance.restrict s1 schema.Transducer_schema.memory in
  let out1 = Instance.restrict s1 schema.Transducer_schema.output in
  let mem2 =
    Instance.diff
      (Instance.union mem1 (Instance.diff ins del))
      (Instance.diff del ins)
  in
  let out2 = Instance.union out1 out_new in
  (Instance.union out2 mem2, snd)

let step ctx t ~node:x ~deliver =
  if not (Policy.in_network ctx.policy x) then
    invalid_arg ("Config.transition: node not in network: " ^ Value.to_string x);
  let buf_x = buffer_of t x in
  if not (Multiset.sub deliver buf_x) then
    invalid_arg "Config.transition: deliver is not a submultiset of the buffer";
  let s1 = state_of t x in
  let s2, snd = react ctx ~node:x s1 (Multiset.support deliver) in
  let state = Value.Map.add x s2 t.state in
  let snd_ms = Multiset.of_instance snd in
  (* x's buffer loses the delivered copies and every other node's buffer
     gains Q_snd, so a transition that sends nothing touches one buffer. *)
  let buffer =
    if Multiset.is_empty snd_ms then
      Value.Map.add x (Multiset.diff buf_x deliver) t.buffer
    else
      Value.Map.mapi
        (fun y b ->
          if Value.equal y x then Multiset.diff b deliver
          else Multiset.union b snd_ms)
        t.buffer
  in
  let added = Instance.diff s2 s1 in
  let stats =
    {
      messages_sent = Multiset.size snd_ms * ctx.recipients;
      delivered = Multiset.size deliver;
      sent_facts = snd;
      output_delta =
        Instance.restrict added
          ctx.transducer.Transducer.schema.Transducer_schema.output;
    }
  in
  record_stats stats;
  ({ state; buffer }, stats)

let transition ~variant ~policy ~transducer ~input t ~node ~deliver =
  step (prepare ~variant ~policy ~transducer ~input) t ~node ~deliver

let heartbeat ~variant ~policy ~transducer ~input t ~node =
  transition ~variant ~policy ~transducer ~input t ~node
    ~deliver:Multiset.empty
