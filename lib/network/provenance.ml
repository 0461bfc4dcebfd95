open Relational

type cone = {
  target : Fact.t;
  anchor : Trace.event;
  events : Trace.event list;
  nodes : Value.t list;
}

let cone_of events target =
  let events =
    List.sort (fun a b -> compare a.Trace.index b.Trace.index) events
  in
  match
    List.find_opt
      (fun e -> List.exists (Fact.equal target) e.Trace.output_delta)
      events
  with
  | None -> None
  | Some anchor ->
    (* e is in the anchor's causal past iff V(e) ≤ V(anchor): vector
       clocks characterize happens-before exactly. *)
    let cone_events =
      List.filter
        (fun e -> Causal.vector_leq e.Trace.vector anchor.Trace.vector)
        events
    in
    Some
      {
        target;
        anchor;
        events = cone_events;
        nodes = Causal.support anchor.Trace.vector;
      }

let heard_from_all ~network cone =
  List.for_all
    (fun n -> List.exists (Value.equal n) cone.nodes)
    network

let coordinated ~network events =
  Fact.Set.exists
    (fun f ->
      match cone_of events f with
      | Some cone -> heard_from_all ~network cone
      | None -> false)
    (Fact.Set.of_list (List.concat_map (fun e -> e.Trace.output_delta) events))

let replay ~variant ~policy ~transducer ~input cone =
  let facts_equal a b =
    Instance.equal (Instance.of_list a) (Instance.of_list b)
  in
  try
    let ctx = Config.prepare ~variant ~policy ~transducer ~input in
    let config =
      List.fold_left
        (fun config e ->
          (* A faulty run's trace carries the annotations needed to
             replay it: a restart wipes the node's state and re-injects
             the logged redeliveries; loss/partition holds need nothing
             (the replay buffer is a superset of the real one, so
             sub-checks pass and extra copies are simply never
             delivered). *)
          let config =
            if e.Trace.restart then
              Config.restart config ~node:e.Trace.node ~injected:e.Trace.injected
            else config
          in
          let config', stats =
            Config.step ctx config ~node:e.Trace.node
              ~deliver:(Multiset.of_list e.Trace.delivered)
          in
          (* Duplication enqueued [dup]-fold copies in the real run;
             mirror the extras so later deliveries of those copies
             replay. *)
          let config' =
            Config.duplicate config' ~node:e.Trace.node ~sent:e.Trace.sent
              ~copies:e.Trace.dup
          in
          if
            not
              (facts_equal
                 (Instance.to_list stats.Config.sent_facts)
                 e.Trace.sent)
          then
            failwith
              (Printf.sprintf
                 "replay of event #%d diverged: sent facts differ" e.Trace.index);
          if
            not
              (facts_equal
                 (Instance.to_list stats.Config.output_delta)
                 e.Trace.output_delta)
          then
            failwith
              (Printf.sprintf
                 "replay of event #%d diverged: output delta differs"
                 e.Trace.index);
          config')
        (Config.start (Policy.network policy))
        cone.events
    in
    Ok (Config.outputs transducer.Transducer.schema config)
  with
  | Failure m -> Error m
  | Invalid_argument m -> Error ("replay failed: " ^ m)

let validate ~variant ~policy ~transducer ~input cone =
  match replay ~variant ~policy ~transducer ~input cone with
  | Error _ as e -> e
  | Ok outputs ->
    if Instance.mem cone.target outputs then Ok ()
    else
      Error
        (Printf.sprintf "replayed cone does not produce %s"
           (Fact.to_string cone.target))

let pp ppf cone =
  Format.fprintf ppf "@[<v>fact    %a@ anchor  #%d @@ node %a (L%d)@ "
    Fact.pp cone.target cone.anchor.Trace.index Value.pp
    cone.anchor.Trace.node cone.anchor.Trace.lamport;
  Format.fprintf ppf "cone    %d of the run's events@ nodes   %a@ "
    (List.length cone.events)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    cone.nodes;
  let interesting =
    List.filter
      (fun e ->
        e.Trace.delivered <> [] || e.Trace.sent <> []
        || e.Trace.output_delta <> [])
      cone.events
  in
  Format.fprintf ppf "@[<v 2>events:";
  List.iter
    (fun e -> Format.fprintf ppf "@ %a" Trace.pp_event e)
    interesting;
  Format.fprintf ppf "@]@]"
