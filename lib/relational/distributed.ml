type network = Value.t list

let validate_network nodes =
  let sorted = List.sort_uniq Value.compare nodes in
  if sorted = [] then invalid_arg "Distributed: a network must be nonempty";
  sorted

let network_of_ints l = validate_network (List.map Value.int l)
let network_of_names l = validate_network (List.map Value.sym l)

type t = { net : network; locals : Instance.t Value.Map.t }

let create net =
  let net = validate_network net in
  {
    net;
    locals =
      List.fold_left
        (fun m x -> Value.Map.add x Instance.empty m)
        Value.Map.empty net;
  }

let network t = t.net

let local t x =
  match Value.Map.find_opt x t.locals with
  | Some i -> i
  | None ->
    invalid_arg
      ("Distributed.local: node " ^ Value.to_string x ^ " not in network")

let set_local t x i =
  ignore (local t x);
  { t with locals = Value.Map.add x i t.locals }

let update_local t x f = set_local t x (f (local t x))

let global t =
  Value.Map.fold (fun _ i acc -> Instance.union i acc) t.locals Instance.empty

let of_assignment net assignment =
  let t = create net in
  List.fold_left
    (fun t (x, i) -> update_local t x (Instance.union i))
    t assignment

let nodes t = t.net
