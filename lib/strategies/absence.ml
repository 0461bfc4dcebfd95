open Relational

let fact_msg_prefix = "Msg_"
let absence_msg_prefix = "AbsMsg_"
let fact_mem_prefix = "Got_"
let absence_mem_prefix = "Abs_"
let id_msg_rel = "IdMsg"
let seen_id_rel = "SeenId"

let known_absent input d =
  let stored = Common.unrename ~prefix:absence_mem_prefix d in
  let delivered = Common.unrename ~prefix:absence_msg_prefix d in
  Instance.union
    (Instance.restrict stored input)
    (Instance.restrict delivered input)

let inside a f = Array.for_all (fun v -> Value.Set.mem v a) f.Fact.args

(* The system facts show [policy_R(ā)] exactly for the facts [R(ā)] over
   [MyAdom] that this node is responsible for, so the certificates are
   read off those rows rather than enumerated over [MyAdom]^k. *)
let certified_absences input d =
  let a = Common.my_adom d in
  List.fold_left
    (fun acc (r, k) ->
      List.fold_left
        (fun acc p ->
          if Fact.arity p = k && inside a p then
            let f = Fact.make_array r p.Fact.args in
            if Instance.mem f d then acc else Instance.add f acc
          else acc)
        acc
        (Instance.by_rel d (Network.Transducer_schema.policy_rel r)))
    Instance.empty (Schema.relations input)

(* Known and absent facts are all over the input schema, so those over
   [MyAdom] are candidate facts, each counted once: [MyAdom] is complete
   iff they number all Σ|MyAdom|^k candidates. *)
let complete_with input d ~known =
  let a = Common.my_adom d in
  let covered =
    Instance.union known
      (Instance.union (known_absent input d) (certified_absences input d))
  in
  let n =
    Instance.fold (fun f n -> if inside a f then n + 1 else n) covered 0
  in
  let card = Value.Set.cardinal a in
  let rec pow k = if k = 0 then 1 else card * pow (k - 1) in
  n
  = List.fold_left (fun acc (_, k) -> acc + pow k) 0 (Schema.relations input)

let complete input d = complete_with input d ~known:(Broadcast.known input d)

(* Nodes also broadcast their own identifier. The paper's with-All model
   gets node identifiers into every [A] for free ([A = N ∪ adom J]); in
   the All-free model of Section 4.3 identifiers must travel as data or
   absence certificates for facts mentioning them would never be issued.
   Harmless in the with-All model. *)
let id_facts d =
  match Common.my_id d with
  | None -> Instance.empty
  | Some x -> Instance.of_list [ Fact.make id_msg_rel [ x ] ]

let seen_ids d =
  let delivered = Instance.by_rel d id_msg_rel in
  let stored = Instance.by_rel d seen_id_rel in
  List.fold_left
    (fun acc f -> Instance.add (Fact.make seen_id_rel [ Fact.arg f 0 ]) acc)
    Instance.empty (delivered @ stored)

let transducer (q : Query.t) =
  let input = q.Query.input in
  let schema =
    Network.Transducer_schema.make ~input ~output:q.Query.output
      ~message:
        (Schema.add id_msg_rel 1
           (Schema.union
              (Common.rename_schema ~prefix:fact_msg_prefix input)
              (Common.rename_schema ~prefix:absence_msg_prefix input)))
      ~memory:
        (Schema.add seen_id_rel 1
           (Schema.union
              (Common.rename_schema ~prefix:fact_mem_prefix input)
              (Common.rename_schema ~prefix:absence_mem_prefix input)))
      ()
  in
  Network.Transducer.make ~schema
    ~out:(fun d ->
      let known = Broadcast.known input d in
      if complete_with input d ~known then Query.apply q known
      else Instance.empty)
    ~ins:(fun d ->
      Instance.union (seen_ids d)
        (Instance.union
           (Common.rename ~prefix:fact_mem_prefix (Broadcast.known input d))
           (Common.rename ~prefix:absence_mem_prefix
              (Instance.union (known_absent input d)
                 (certified_absences input d)))))
    ~snd:(fun d ->
      Instance.union (id_facts d)
        (Instance.union
           (Common.rename ~prefix:fact_msg_prefix
              (Common.restrict_input input d))
           (Common.rename ~prefix:absence_msg_prefix
              (certified_absences input d))))
    ()
