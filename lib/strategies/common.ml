open Relational

let rename_schema ~prefix sg =
  Schema.of_list
    (List.map (fun (name, ar) -> (prefix ^ name, ar)) (Schema.relations sg))

(* [prefix ^ rel], concatenated once per run of one relation's facts:
   an instance lists them together. *)
let prefixer prefix =
  let last = ref "" and name = ref prefix in
  fun rel ->
    if not (String.equal rel !last) then begin
      last := rel;
      name := prefix ^ rel
    end;
    !name

let rename ~prefix i =
  let name = prefixer prefix in
  Instance.fold
    (fun f acc ->
      Instance.add (Fact.make_array (name (Fact.rel f)) f.Fact.args) acc)
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

(* For each input relation [R/k], the facts of [D] in relation [name R]
   with arity [k], each mapped by [g R] and added to [init]: one range
   read per relation. *)
let read_input input d name g init =
  List.fold_left
    (fun acc (r, k) ->
      List.fold_left
        (fun acc f ->
          if Fact.arity f = k then Instance.add (g r f) acc else acc)
        acc
        (Instance.by_rel d (name r)))
    init (Schema.relations input)

let restrict_input input d =
  read_input input d Fun.id (fun _ f -> f) Instance.empty

let unrename_input ~prefix input d acc =
  read_input input d (( ^ ) prefix)
    (fun r f -> Fact.make_array r f.Fact.args)
    acc

let missing_copies ~prefix facts d acc =
  let name = prefixer prefix in
  Instance.fold
    (fun f acc ->
      let g = Fact.make_array (name (Fact.rel f)) f.Fact.args in
      if Instance.mem g d then acc else Instance.add g acc)
    facts acc

type 'a slot = (Schema.t * Instance.t * 'a) option ref Domain.DLS.key

let slot () = Domain.DLS.new_key (fun () -> ref None)

let once slot derive input d =
  let last = Domain.DLS.get slot in
  match !last with
  | Some (input', d', v) when input' == input && d' == d -> v
  | _ ->
    let v = derive input d in
    last := Some (input, d, v);
    v

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
