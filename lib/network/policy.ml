open Relational

type t = {
  name : string;
  schema : Schema.t;
  network : Distributed.network;
  nodes : Value.Set.t;  (* the network again, for membership tests *)
  raw_assign : Fact.t -> Value.t list;
  alpha : (Value.t -> Value.t list) option;
}

let name t = t.name
let network t = t.network
let schema t = t.schema
let in_network t x = Value.Set.mem x t.nodes

let assign t f =
  if not (Schema.fact_over t.schema f) then
    invalid_arg
      (Printf.sprintf "Policy.assign (%s): fact %s not over schema %s" t.name
         (Fact.to_string f)
         (Schema.to_string t.schema));
  let nodes =
    t.raw_assign f
    |> List.filter (in_network t)
    |> List.sort_uniq Value.compare
  in
  if nodes = [] then
    invalid_arg
      (Printf.sprintf "Policy.assign (%s): empty assignment for %s" t.name
         (Fact.to_string f))
  else nodes

let responsible t x f = List.exists (Value.equal x) (assign t f)
let is_domain_guided t = t.alpha <> None
let domain_assignment t = t.alpha

let dist t i =
  Instance.fold
    (fun f acc ->
      if Schema.fact_over t.schema f then
        List.fold_left
          (fun acc x -> Distributed.update_local acc x (Instance.add f))
          acc (assign t f)
      else acc)
    i
    (Distributed.create t.network)

let make ~name schema network raw_assign =
  let network = Distributed.validate_network network in
  { name; schema; network; nodes = Value.Set.of_list network; raw_assign;
    alpha = None }

let normalize_nodes nodes l =
  l
  |> List.filter (fun x -> Value.Set.mem x nodes)
  |> List.sort_uniq Value.compare

let domain_guided ~name schema network alpha =
  let network = Distributed.validate_network network in
  let nodes = Value.Set.of_list network in
  let raw_assign f =
    List.concat_map alpha (Value.Set.elements (Fact.adom f))
  in
  { name; schema; network; nodes; raw_assign;
    alpha = Some (fun v -> normalize_nodes nodes (alpha v)) }

let nth_node nodes k =
  let n = Array.length nodes in
  [ nodes.(((k mod n) + n) mod n) ]

let hash_fact schema network =
  let network = Distributed.validate_network network in
  let nodes = Array.of_list network in
  make ~name:"hash-fact" schema network (fun f -> nth_node nodes (Fact.hash f))

let first_attribute schema network =
  let network = Distributed.validate_network network in
  let nodes = Array.of_list network in
  make ~name:"first-attribute" schema network (fun f ->
      nth_node nodes (Value.hash (Fact.arg f 0)))

let hash_value schema network =
  let network = Distributed.validate_network network in
  let nodes = Array.of_list network in
  domain_guided ~name:"hash-value" schema network (fun v ->
      nth_node nodes (Value.hash v))

let replicate_all schema network =
  let network = Distributed.validate_network network in
  domain_guided ~name:"replicate-all" schema network (fun _ -> network)

let single schema network x =
  let network = Distributed.validate_network network in
  domain_guided
    ~name:("single-" ^ Value.to_string x)
    schema network
    (fun _ -> [ x ])

let override ~name ~on ~to_ p =
  {
    p with
    name;
    raw_assign = (fun f -> if on f then to_ else p.raw_assign f);
    alpha = None;
  }
