open Relational

let fact_msg_prefix = "Msg_"
let absence_msg_prefix = "AbsMsg_"
let fact_mem_prefix = "Got_"
let absence_mem_prefix = "Abs_"
let id_msg_rel = "IdMsg"
let seen_id_rel = "SeenId"

let inside a f = Array.for_all (fun v -> Value.Set.mem v a) f.Fact.args

(* The system facts show [policy_R(ā)] exactly for the facts [R(ā)] over
   [MyAdom] that this node is responsible for, so the certificates are
   read off those rows rather than enumerated over [MyAdom]^k. D holds
   an input fact iff its local fragment does. *)
let certify input d ~local a =
  List.fold_left
    (fun acc (r, k) ->
      List.fold_left
        (fun acc p ->
          if Fact.arity p = k && inside a p then
            let f = Fact.make_array r p.Fact.args in
            if Instance.mem f local then acc else Instance.add f acc
          else acc)
        acc
        (Instance.by_rel d (Network.Transducer_schema.policy_rel r)))
    Instance.empty (Schema.relations input)

type derivation = {
  facts : Broadcast.derivation;
  delivered_absent : Instance.t;  (* input facts delivered as [AbsMsg_R] *)
  certified : Instance.t;
  complete : bool;
}

(* Known and absent facts are all over the input schema, so those over
   [MyAdom] are candidate facts, each counted once: [MyAdom] is complete
   iff they number all Σ|MyAdom|^k candidates. *)
let assemble input d =
  let facts = Broadcast.derive input d in
  let a = Common.my_adom d in
  let delivered_absent =
    Common.unrename_input ~prefix:absence_msg_prefix input d Instance.empty
  in
  let certified = certify input d ~local:facts.Broadcast.local a in
  let covered =
    Common.unrename_input ~prefix:absence_mem_prefix input d
      (Instance.union facts.Broadcast.known
         (Instance.union delivered_absent certified))
  in
  let n =
    Instance.fold (fun f n -> if inside a f then n + 1 else n) covered 0
  in
  let card = Value.Set.cardinal a in
  let rec pow k = if k = 0 then 1 else card * pow (k - 1) in
  {
    facts;
    delivered_absent;
    certified;
    complete =
      n
      = List.fold_left
          (fun acc (_, k) -> acc + pow k)
          0 (Schema.relations input);
  }

let slot : derivation Common.slot = Common.slot ()
let derive input d = Common.once slot assemble input d
let certified_absences input d = (derive input d).certified
let complete input d = (derive input d).complete

(* Nodes also broadcast their own identifier. The paper's with-All model
   gets node identifiers into every [A] for free ([A = N ∪ adom J]); in
   the All-free model of Section 4.3 identifiers must travel as data or
   absence certificates for facts mentioning them would never be issued.
   Harmless in the with-All model. *)
let id_facts d =
  match Common.my_id d with
  | None -> Instance.empty
  | Some x -> Instance.of_list [ Fact.make id_msg_rel [ x ] ]

(* The [SeenId] rows of the identifiers just delivered that D lacks. *)
let new_ids d =
  List.fold_left
    (fun acc f ->
      let g = Fact.make seen_id_rel [ Fact.arg f 0 ] in
      if Instance.mem g d then acc else Instance.add g acc)
    Instance.empty
    (Instance.by_rel d id_msg_rel)

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
      let x = derive input d in
      if x.complete then Query.apply q x.facts.Broadcast.known
      else Instance.empty)
    ~ins:(fun d ->
      let x = derive input d in
      Broadcast.stored_copies ~prefix:fact_mem_prefix x.facts d
        (Common.missing_copies ~prefix:absence_mem_prefix x.delivered_absent d
           (Common.missing_copies ~prefix:absence_mem_prefix x.certified d
              (new_ids d))))
    ~snd:(fun d ->
      let x = derive input d in
      Instance.union (id_facts d)
        (Instance.union
           (Common.rename ~prefix:fact_msg_prefix x.facts.Broadcast.local)
           (Common.rename ~prefix:absence_msg_prefix x.certified)))
    ()
