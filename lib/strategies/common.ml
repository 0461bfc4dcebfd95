open Relational

let rename_schema ~prefix sg =
  Schema.of_list
    (List.map (fun (name, ar) -> (prefix ^ name, ar)) (Schema.relations sg))

let rename ~prefix i =
  Instance.fold
    (fun f acc -> Instance.add (Fact.make (prefix ^ Fact.rel f) (Fact.args f)) acc)
    i Instance.empty

(* A range read of the prefixed relations. Consecutive facts mostly share
   their relation, so each stripped name is cut once per run of them. *)
let fold_prefixed ~prefix g i init =
  let pl = String.length prefix in
  let last = ref "" and base = ref "" in
  List.fold_left
    (fun acc f ->
      let name = Fact.rel f in
      if String.length name > pl then begin
        if not (String.equal name !last) then begin
          last := name;
          base := String.sub name pl (String.length name - pl)
        end;
        g !base f acc
      end
      else acc)
    init
    (Instance.by_prefix i prefix)

let unrename ~prefix i =
  fold_prefixed ~prefix
    (fun base f acc -> Instance.add (Fact.make_array base f.Fact.args) acc)
    i Instance.empty

let restrict_input input d =
  List.fold_left
    (fun acc (r, k) ->
      List.fold_left
        (fun acc f -> if Fact.arity f = k then Instance.add f acc else acc)
        acc (Instance.by_rel d r))
    Instance.empty (Schema.relations input)

let my_id d =
  match Instance.by_rel d Network.Transducer_schema.id_rel with
  | f :: _ when Fact.arity f = 1 -> Some (Fact.arg f 0)
  | _ -> None

let my_adom d =
  List.fold_left
    (fun acc f -> Value.Set.add (Fact.arg f 0) acc)
    Value.Set.empty
    (Instance.by_rel d Network.Transducer_schema.myadom_rel)

let responsible_fact d f =
  Instance.mem
    (Fact.make (Network.Transducer_schema.policy_rel (Fact.rel f)) (Fact.args f))
    d

let responsible_value input d a =
  List.exists
    (fun (r, k) ->
      Instance.mem
        (Fact.make (Network.Transducer_schema.policy_rel r) (List.init k (fun _ -> a)))
        d)
    (Schema.relations input)
