(* The four cells of E19 (exhaustive model checking), checked by the
   differential oracle in test_network.ml; test_parallel.ml's sweep
   wall shares the network and the query. *)

open Relational
open Queries

let net2 = Distributed.network_of_ints [ 101; 102 ]

let comp_edges =
  Query.make ~name:"comp-edges" ~input:Graph_gen.schema
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i ->
      let dom = Value.Set.elements (Instance.adom i) in
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc b ->
              if Instance.mem (Fact.make "E" [ a; b ]) i then acc
              else Instance.add (Fact.make "O" [ a; b ]) acc)
            acc dom)
        Instance.empty dom)

let parity network a b =
  Network.Policy.make ~name:"parity" Graph_gen.schema network (fun f ->
      match Fact.arg f 0 with
      | Value.Int x when x mod 2 = 1 -> [ Value.Int a ]
      | _ -> [ Value.Int b ])

let cells =
  let two_edges = Graph_gen.of_edges [ (1, 2); (2, 3) ] in
  let crossed = Graph_gen.of_edges [ (1, 2); (2, 1) ] in
  let tiny_net = Distributed.network_of_ints [ 1; 2 ] in
  let one_move = Instance.of_strings [ "Move(5,6)" ] in
  [
    ( "broadcast/tc",
      (Strategies.Broadcast.transducer Zoo.tc, Zoo.tc, two_edges,
       Network.Config.oblivious, parity net2 101 102) );
    ( "broadcast/comp-edges",
      (Strategies.Broadcast.transducer comp_edges, comp_edges, crossed,
       Network.Config.policy_aware, parity net2 101 102) );
    ( "absence/comp-edges",
      (Strategies.Absence.transducer comp_edges, comp_edges,
       Graph_gen.of_edges [ (1, 2) ],
       Network.Config.policy_aware, parity tiny_net 1 2) );
    ( "domain-request/win-move",
      (Strategies.Domain_request.transducer Zoo.winmove, Zoo.winmove,
       one_move, Network.Config.policy_aware,
       Network.Policy.hash_value Zoo.winmove.Query.input net2) );
  ]
