open Relational

type scheduler =
  | Round_robin
  | Random of { seed : int; steps : int }
  | Stingy of { seed : int; steps : int }
  | Adversarial of { steps : int }

type result = {
  config : Config.t;
  outputs : Instance.t;
  transitions : int;
  rounds : int;
  messages_sent : int;
  deliveries : int;
  quiesced : bool;
}

type counters = {
  mutable n_transitions : int;
  mutable n_messages : int;
  mutable n_deliveries : int;
  (* Causal state is only advanced when a tracer is attached: untraced
     runs pay nothing for the clock machinery. *)
  mutable causal : Causal.t;
}

(* Telemetry (all stable): per-transition tallies live in [Config]; here
   we record the round structure of a run — how many stabilization
   rounds, how much observable output each contributed, and where
   quiescence was reached. *)
let m_rounds = Observe.Metrics.counter "net.rounds"
let m_round_output_delta = Observe.Metrics.histogram "net.round_output_delta"
let m_quiescence_round = Observe.Metrics.gauge "net.quiescence_round"
let m_heartbeat_steps = Observe.Metrics.counter "net.heartbeat_steps"

(* Per-round trajectory sampling (Series recorder, gated off by default):
   tick = stabilization round index, so points are keyed by a semantic
   coordinate of the run and merge deterministically across jobs. *)
let sample_round ~fault config ~round ~delta ~deliveries =
  if Observe.Series.is_enabled () then begin
    Observe.Series.sample "net.round_output_delta" ~tick:round
      (float_of_int delta);
    Observe.Series.sample "net.round_pending" ~tick:round
      (float_of_int
         (Value.Map.fold
            (fun _ b acc -> acc + Multiset.size b)
            config.Config.buffer 0));
    Observe.Series.sample "net.round_deliveries" ~tick:round
      (float_of_int deliveries);
    match fault with
    | None -> ()
    | Some st ->
      Observe.Series.sample "net.round_held" ~tick:round
        (float_of_int (Fault.held_pending st));
      Observe.Series.sample "net.round_crashes_pending" ~tick:round
        (float_of_int (Fault.crashes_pending st))
  end

(* Heartbeat: a progress line on stderr every [cadence] seconds
   (0 = off). *)
type hb = { cadence : float; mutable last : float }

let hb_start cadence = { cadence; last = Observe.Metrics.now () }

let hb_tick hb fmt =
  Printf.ksprintf
    (fun line ->
      if hb.cadence > 0. then begin
        let now = Observe.Metrics.now () in
        if now -. hb.last >= hb.cadence then begin
          hb.last <- now;
          Printf.eprintf "[hb] %s\n%!" line
        end
      end)
    fmt

let faults_label ?faults label =
  match faults with None -> label | Some _ -> label ^ "+faults"

let scheduler_label ?faults scheduler =
  faults_label ?faults
    (match scheduler with
    | Round_robin -> "round_robin"
    | Random _ -> "random"
    | Stingy _ -> "stingy"
    | Adversarial _ -> "adversarial")

let snapshot config =
  ( config.Config.state,
    Value.Map.map Multiset.support config.Config.buffer )

let snapshot_equal (s1, b1) (s2, b2) =
  Value.Map.equal Instance.equal s1 s2 && Value.Map.equal Fact.Set.equal b1 b2

(* ------------------------------------------------------------------ *)
(* Adversarial scheduling state: a per-(recipient, fact) multiset of
   message depths. A transition's depth is one more than the deepest
   message it consumed (or than the node's previous depth), and its
   sends carry that depth — so greedily delivering the deepest pending
   copy maximizes the causal depth of the run, the adversary that
   stresses reorder-sensitivity the hardest. Deterministic: no RNG,
   ties broken by (node, fact) order. *)

type adv = {
  mutable depths : int list Fact.Map.t Value.Map.t;  (* desc-sorted *)
  mutable node_depth : int Value.Map.t;
  mutable rr : int;  (* heartbeat rotation when nothing is pending *)
}

let adv_init () =
  { depths = Value.Map.empty; node_depth = Value.Map.empty; rr = 0 }

let rec insert_desc d = function
  | [] -> [ d ]
  | x :: _ as l when d >= x -> d :: l
  | x :: rest -> x :: insert_desc d rest

let adv_push a y f ~depth ~copies =
  if copies > 0 then
    a.depths <-
      Value.Map.update y
        (fun m ->
          let m = Option.value m ~default:Fact.Map.empty in
          Some
            (Fact.Map.update f
               (fun l ->
                 let l = Option.value l ~default:[] in
                 Some
                   (List.fold_left
                      (fun l _ -> insert_desc depth l)
                      l
                      (List.init copies (fun i -> i))))
               m))
        a.depths

(* Remove up to [copies] of the deepest entries for (y, f); the deepest
   removed is the consumed depth (0 when none were tracked). *)
let adv_pop a y f ~copies =
  match Value.Map.find_opt y a.depths with
  | None -> 0
  | Some m -> (
    match Fact.Map.find_opt f m with
    | None -> 0
    | Some l ->
      let taken = List.filteri (fun i _ -> i < copies) l in
      let kept = List.filteri (fun i _ -> i >= copies) l in
      let m =
        if kept = [] then Fact.Map.remove f m else Fact.Map.add f kept m
      in
      a.depths <- Value.Map.add y m a.depths;
      (match taken with [] -> 0 | d :: _ -> d))

(* Remove up to [copies] entries of exactly [depth] (the entries a fault
   hold just took out of the buffer). *)
let adv_remove a y f ~depth ~copies =
  match Value.Map.find_opt y a.depths with
  | None -> ()
  | Some m -> (
    match Fact.Map.find_opt f m with
    | None -> ()
    | Some l ->
      let removed = ref 0 in
      let kept =
        List.filter
          (fun d ->
            if d = depth && !removed < copies then begin
              incr removed;
              false
            end
            else true)
          l
      in
      let m =
        if kept = [] then Fact.Map.remove f m else Fact.Map.add f kept m
      in
      a.depths <- Value.Map.add y m a.depths)

(* The deepest pending copy actually present in a buffer; ties resolve
   to the smallest (node, fact) — map folds are in ascending key order,
   and only strictly deeper candidates displace the incumbent. *)
let adv_choose a config =
  Value.Map.fold
    (fun y m best ->
      Fact.Map.fold
        (fun f l best ->
          match l with
          | d :: _ when Multiset.mem f (Config.buffer_of config y) -> (
            match best with
            | Some (bd, _, _) when bd >= d -> best
            | _ -> Some (d, y, f))
          | _ -> best)
        m best)
    a.depths None

(* ------------------------------------------------------------------ *)
(* The per-run runtime: the transition context and its network, counters
   and tracer, plus the optional fault state (a non-empty fault plan) and
   the adversarial phase's depth state. *)

type rt = {
  ctx : Config.ctx;
  network : Value.t list;
  counters : counters;
  tracer : Trace.collector option;
  fault : Fault.state option;
  adv : adv option;
}

(* One transition of [node], with fault pre-processing (retransmission
   releases, crash/restart), the transition itself ([deliver_of] reads
   the post-fault buffer), and fault post-processing (duplication, loss
   and partition holds), with the causal tracer and the adversarial
   depth structure kept in sync with every buffer change. *)
let do_step rt config node deliver_of =
  let counters = rt.counters in
  let traced = rt.tracer <> None in
  (* -- fault pre-processing: releases due now, then crash/restart -- *)
  let config, restart, injected =
    match rt.fault with
    | None -> (config, false, [])
    | Some st ->
      Fault.note_round st;
      let config =
        List.fold_left
          (fun config (h : Fault.held_copy) ->
            let buffer =
              Value.Map.update h.Fault.recipient
                (fun b ->
                  Some
                    (Multiset.add ~copies:h.Fault.copies h.Fault.fact
                       (Option.value b ~default:Multiset.empty)))
                config.Config.buffer
            in
            (match h.Fault.stamps with
            | Some held when traced ->
              counters.causal <-
                Causal.release counters.causal ~recipient:h.Fault.recipient
                  ~fact:h.Fault.fact held
            | _ -> ());
            (match rt.adv with
            | Some a ->
              adv_push a h.Fault.recipient h.Fault.fact ~depth:h.Fault.depth
                ~copies:h.Fault.copies
            | None -> ());
            { config with Config.buffer })
          config (Fault.take_due st)
      in
      if Fault.crash_due st ~node then begin
        let injected = Fault.redelivery st ~node in
        let state =
          Value.Map.add node Instance.empty config.Config.state
        in
        let buffer =
          Value.Map.update node
            (fun b ->
              Some
                (List.fold_left
                   (fun b f -> Multiset.add f b)
                   (Option.value b ~default:Multiset.empty)
                   injected))
            config.Config.buffer
        in
        if traced && injected <> [] then
          counters.causal <-
            Causal.redeliver counters.causal ~node ~facts:injected;
        (match rt.adv with
        | Some a ->
          List.iter (fun f -> adv_push a node f ~depth:0 ~copies:1) injected
        | None -> ());
        ({ Config.state; buffer }, true, injected)
      end
      else (config, false, [])
  in
  (* -- the transition itself --------------------------------------- *)
  let deliver = deliver_of config in
  let config', stats = Config.step rt.ctx config ~node ~deliver in
  counters.n_transitions <- counters.n_transitions + 1;
  counters.n_messages <- counters.n_messages + stats.Config.messages_sent;
  counters.n_deliveries <- counters.n_deliveries + stats.Config.delivered;
  let sent = Instance.to_list stats.Config.sent_facts in
  (* Only fault handling and the adversarial depths address recipients
     one by one: plain runs never build the list. *)
  let recipients =
    lazy (List.filter (fun y -> not (Value.equal y node)) rt.network)
  in
  (* -- adversarial bookkeeping: consume delivered depths ------------ *)
  let send_depth =
    match rt.adv with
    | None -> 0
    | Some a ->
      let dmax =
        Multiset.fold
          (fun f n acc -> max acc (adv_pop a node f ~copies:n))
          deliver 0
      in
      let nd =
        max (Option.value (Value.Map.find_opt node a.node_depth) ~default:0)
          dmax
        + 1
      in
      a.node_depth <- Value.Map.add node nd a.node_depth;
      nd
  in
  (* -- duplication --------------------------------------------------- *)
  let dup, config' =
    match rt.fault with
    | None -> (1, config')
    | Some st ->
      let dup =
        Fault.draw_dup st
          ~sends:(List.length sent * List.length (Lazy.force recipients))
      in
      if dup <= 1 then (1, config')
      else
        let extra =
          List.fold_left
            (fun m f -> Multiset.add ~copies:(dup - 1) f m)
            Multiset.empty sent
        in
        let buffer =
          Value.Map.mapi
            (fun y b ->
              if Value.equal y node then b else Multiset.union b extra)
            config'.Config.buffer
        in
        (dup, { config' with Config.buffer })
  in
  (* -- causal step + trace record ----------------------------------- *)
  (match rt.tracer with
  | None -> ()
  | Some c ->
    let delivered = Multiset.to_list deliver in
    let causal', stamp =
      Causal.step ~dup counters.causal ~node ~index:counters.n_transitions
        ~delivered ~sent
    in
    counters.causal <- causal';
    Trace.record c
      {
        Trace.index = counters.n_transitions;
        node;
        lamport = stamp.Causal.lamport;
        vector = stamp.Causal.vector;
        origins = stamp.Causal.origins;
        delivered;
        sent;
        output_delta = Instance.to_list stats.Config.output_delta;
        dup;
        restart;
        injected;
      });
  (* -- post-transition fault bookkeeping ----------------------------- *)
  (match rt.fault with
  | None -> ()
  | Some st -> Fault.record_delivery st ~node (Multiset.support deliver));
  (match rt.adv with
  | None -> ()
  | Some a ->
    List.iter
      (fun y ->
        List.iter
          (fun f -> adv_push a y f ~depth:send_depth ~copies:dup)
          sent)
      (Lazy.force recipients));
  (* -- loss and partition holds -------------------------------------- *)
  let config' =
    match rt.fault with
    | None -> config'
    | Some st ->
      if sent = [] || Lazy.force recipients = [] then begin
        Fault.tick st;
        config'
      end
      else begin
        let buffer =
          List.fold_left
            (fun buffer f ->
              List.fold_left
                (fun buffer y ->
                  let release =
                    match Fault.blocks st ~sender:node ~recipient:y with
                    | Some r -> Some r
                    | None -> Fault.draw_loss st
                  in
                  match release with
                  | None -> buffer
                  | Some release ->
                    let stamps =
                      if traced then begin
                        let causal', held =
                          Causal.hold counters.causal ~recipient:y ~fact:f
                            ~copies:dup
                        in
                        counters.causal <- causal';
                        Some held
                      end
                      else None
                    in
                    (match rt.adv with
                    | Some a ->
                      adv_remove a y f ~depth:send_depth ~copies:dup
                    | None -> ());
                    Fault.add_held st
                      {
                        Fault.recipient = y;
                        fact = f;
                        copies = dup;
                        release;
                        stamps;
                        depth = send_depth;
                      };
                    Value.Map.update y
                      (fun b ->
                        Some
                          (Multiset.diff
                             (Option.value b ~default:Multiset.empty)
                             (Multiset.add ~copies:dup f Multiset.empty)))
                      buffer)
                buffer (Lazy.force recipients))
            config'.Config.buffer sent
        in
        Fault.tick st;
        { config' with Config.buffer }
      end
  in
  config'

(* One full-delivery round-robin round. *)
let full_round rt config =
  List.fold_left
    (fun config node ->
      do_step rt config node (fun c -> Config.buffer_of c node))
    config rt.network

let random_submultiset st b =
  Multiset.fold
    (fun f n acc ->
      let keep = Random.State.int st (n + 1) in
      Multiset.add ~copies:keep f acc)
    b Multiset.empty

let random_phase rt ~stingy st steps config =
  let network = Array.of_list rt.network in
  let pick () = network.(Random.State.int st (Array.length network)) in
  let rec go k config =
    if k = 0 then config
    else
      let node = pick () in
      let deliver_of c =
        let b = Config.buffer_of c node in
        if stingy then
          if Multiset.is_empty b then Multiset.empty
          else
            Multiset.add
              (Multiset.nth b (Random.State.int st (Multiset.size b)))
              Multiset.empty
        else random_submultiset st b
      in
      go (k - 1) (do_step rt config node deliver_of)
  in
  go steps config

(* Greedy causal-depth maximization: deliver the single deepest pending
   message copy; heartbeat round-robin when nothing is pending (so the
   phase is fair and the run can still make progress from a cold
   start). The depth structure lives only for this phase: stabilization
   never reads it. *)
let adversarial_phase rt steps config =
  let a = adv_init () in
  let rt = { rt with adv = Some a } in
  let network = Array.of_list rt.network in
  let rec go k config =
    if k = 0 then config
    else
      match adv_choose a config with
      | Some (_, y, f) ->
        go (k - 1)
          (do_step rt config y (fun _ -> Multiset.add f Multiset.empty))
      | None ->
        let node = network.(a.rr mod Array.length network) in
        a.rr <- a.rr + 1;
        go (k - 1) (do_step rt config node (fun _ -> Multiset.empty))
  in
  go steps config

let run ?tracer ?faults ?(max_rounds = 500) ?(heartbeat = 0.) ~variant
    ~policy ~transducer ~input scheduler =
  Observe.Sink.span ~cat:"net"
    ~args:
      [ ("scheduler", Observe.Json.String (scheduler_label ?faults scheduler)) ]
    "net.run"
  @@ fun () ->
  (* Rooted: sweep cells run on pool workers, whose ambient span path is
     empty, so a cell's spans aggregate with the sequential run's. *)
  Observe.Profile.span_rooted [ "net.run" ] @@ fun () ->
  let network = Policy.network policy in
  let schema = transducer.Transducer.schema in
  let counters =
    {
      n_transitions = 0;
      n_messages = 0;
      n_deliveries = 0;
      causal = Causal.init network;
    }
  in
  (* The empty plan is no plan, byte for byte: no fault state means no
     RNG draws, no metric rows, no trace deltas. *)
  let fault =
    match faults with
    | Some plan when not (Fault.is_none plan) -> Some (Fault.start plan ~network)
    | _ -> None
  in
  let ctx = Config.prepare ~variant ~policy ~transducer ~input in
  let rt = { ctx; network; counters; tracer; fault; adv = None } in
  let config0 = Config.start network in
  let config0 =
    match scheduler with
    | Round_robin -> config0
    | Random { seed; steps } ->
      random_phase rt ~stingy:false (Random.State.make [| seed |]) steps
        config0
    | Stingy { seed; steps } ->
      random_phase rt ~stingy:true (Random.State.make [| seed |]) steps
        config0
    | Adversarial { steps } -> adversarial_phase rt steps config0
  in
  let hb = hb_start heartbeat in
  let rec stabilize rounds prev prev_out config =
    if rounds >= max_rounds then (config, rounds, false)
    else begin
      let config' = full_round rt config in
      Observe.Metrics.incr m_rounds;
      let out' = Instance.cardinal (Config.outputs schema config') in
      Observe.Metrics.observe m_round_output_delta
        (float_of_int (out' - prev_out));
      sample_round ~fault:rt.fault config' ~round:rounds
        ~delta:(out' - prev_out) ~deliveries:counters.n_deliveries;
      hb_tick hb "round=%d transitions=%d deliveries=%d outputs=%d" rounds
        counters.n_transitions counters.n_deliveries out';
      let snap = snapshot config' in
      (* A faulty run may look quiescent while a crash is still
         scheduled, a partition still up, or retransmissions still
         pending: quiescence additionally requires the fault plan to be
         exhausted, so eventual correctness is judged after every fault
         has struck and healed. *)
      let faults_done =
        match rt.fault with None -> true | Some st -> Fault.quiescent st
      in
      match prev with
      | Some p when snapshot_equal p snap && faults_done ->
        (config', rounds + 1, true)
      | _ -> stabilize (rounds + 1) (Some snap) out' config'
    end
  in
  let out0 = Instance.cardinal (Config.outputs schema config0) in
  let config, rounds, quiesced = stabilize 0 None out0 config0 in
  if quiesced then
    Observe.Metrics.set m_quiescence_round (float_of_int rounds);
  {
    config;
    outputs = Config.outputs schema config;
    transitions = counters.n_transitions;
    rounds;
    messages_sent = counters.n_messages;
    deliveries = counters.n_deliveries;
    quiesced;
  }

(* Run a batch of independent (label, policy, scheduler) sweep cells
   through a pool of [jobs] members (default 1, which spawns nothing).
   Each cell owns its RNG state (seeded per scheduler) and its own trace
   collector, so cells are independent and the result list is the same
   at every [jobs], in cell order, each cell's events included. *)
let sweep ?jobs ?faults ?heartbeat ~variant ~transducer ~input cells =
  let run_cell (label, policy, scheduler) =
    let label = faults_label ?faults label in
    (* Label the cell's series so parallel cells keep distinct keys. *)
    Observe.Series.with_label ("cell", label) @@ fun () ->
    let tracer = Trace.collector () in
    let result =
      run ~tracer ?faults ?heartbeat ~variant ~policy ~transducer ~input
        scheduler
    in
    (label, result, Trace.events tracer)
  in
  Parallel.Pool.with_pool ~jobs:(Option.value jobs ~default:1) (fun pool ->
      Parallel.Pool.map pool run_cell cells)

let heartbeat_prefix ?(max_steps = 200) ~variant ~policy ~transducer ~input
    ~node () =
  let network = Policy.network policy in
  let counters =
    {
      n_transitions = 0;
      n_messages = 0;
      n_deliveries = 0;
      causal = Causal.init network;
    }
  in
  let ctx = Config.prepare ~variant ~policy ~transducer ~input in
  let rt =
    { ctx; network; counters; tracer = None; fault = None; adv = None }
  in
  let config0 = Config.start network in
  let rec go k config =
    if k >= max_steps then (config, false)
    else
      let config' = do_step rt config node (fun _ -> Multiset.empty) in
      if Instance.equal (Config.state_of config' node) (Config.state_of config node)
      then (config', true)
      else go (k + 1) config'
  in
  let config, quiesced = go 0 config0 in
  Observe.Metrics.incr ~by:counters.n_transitions m_heartbeat_steps;
  {
    config;
    outputs = Config.outputs transducer.Transducer.schema config;
    transitions = counters.n_transitions;
    (* Each heartbeat step is a one-transition "round" of its own; report
       the number of steps actually taken (this used to be hardwired to
       0). *)
    rounds = counters.n_transitions;
    messages_sent = counters.n_messages;
    deliveries = counters.n_deliveries;
    quiesced;
  }
