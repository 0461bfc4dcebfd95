open Relational

type t = {
  input : Schema.t;
  output : Schema.t;
  message : Schema.t;
  memory : Schema.t;
  system : Schema.t;
}

let id_rel = "Id"
let all_rel = "All"
let myadom_rel = "MyAdom"
let policy_rel r = "policy_" ^ r

let system_schema input =
  List.fold_left
    (fun acc (r, k) -> Schema.add (policy_rel r) k acc)
    (Schema.of_list [ (id_rel, 1); (all_rel, 1); (myadom_rel, 1) ])
    (Schema.relations input)

let make ~input ~output ?(message = Schema.empty) ?(memory = Schema.empty) ()
    =
  let system = system_schema input in
  let components =
    [ ("input", input); ("output", output); ("message", message);
      ("memory", memory); ("system", system) ]
  in
  let rec check = function
    | [] -> ()
    | (n1, s1) :: rest ->
      List.iter
        (fun (n2, s2) ->
          if not (Schema.disjoint s1 s2) then
            invalid_arg
              (Printf.sprintf
                 "Transducer_schema.make: %s and %s schemas share a relation"
                 n1 n2))
        rest;
      check rest
  in
  check components;
  { input; output; message; memory; system }
