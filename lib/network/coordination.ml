open Relational

type witness = {
  node : Value.t;
  policy : Policy.t;
  result : Run.result;
}

let heartbeat_witness ~variant ~transducer ~query ~input network =
  let expected = Query.apply query input in
  let try_node x =
    let policy = Policy.single query.Query.input network x in
    let result =
      Run.heartbeat_prefix ~variant ~policy ~transducer ~input ~node:x ()
    in
    if Instance.equal result.Run.outputs expected then
      Some { node = x; policy; result }
    else None
  in
  List.find_map try_node network
