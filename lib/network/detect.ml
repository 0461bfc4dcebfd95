open Relational

type fact_report = {
  fact : Fact.t;
  anchor_index : int;
  anchor_node : Value.t;
  cone_events : int;
  cone_nodes : Value.t list;
  heard_from_all : bool;
}

type report = {
  network : Distributed.network;
  facts : fact_report list;
  coordinated : bool;
}

let analyze ~network events =
  let events =
    List.sort (fun a b -> compare a.Trace.index b.Trace.index) events
  in
  (* Distinct output facts in order of first production. *)
  let outputs =
    List.concat_map
      (fun e -> List.map (fun f -> (e, f)) e.Trace.output_delta)
      events
  in
  let _, firsts =
    List.fold_left
      (fun (seen, acc) (e, f) ->
        if Fact.Set.mem f seen then (seen, acc)
        else (Fact.Set.add f seen, (e, f) :: acc))
      (Fact.Set.empty, []) outputs
  in
  let facts =
    List.rev_map
      (fun (anchor, fact) ->
        let cone_nodes = Causal.support anchor.Trace.vector in
        let cone_events =
          List.length
            (List.filter
               (fun e ->
                 Causal.vector_leq e.Trace.vector anchor.Trace.vector)
               events)
        in
        {
          fact;
          anchor_index = anchor.Trace.index;
          anchor_node = anchor.Trace.node;
          cone_events;
          cone_nodes;
          heard_from_all =
            List.for_all
              (fun n -> List.exists (Value.equal n) cone_nodes)
              network;
        })
      firsts
  in
  {
    network;
    facts;
    coordinated = List.exists (fun r -> r.heard_from_all) facts;
  }
