open Relational

let val_msg_rel = "ValMsg"
let req_rel = "Req"
let ok_rel = "OkMsg"
let fact_msg_prefix = "FMsg_"
let ack_msg_prefix = "AckMsg_"

(* memory *)
let got_prefix = "Got_"
let got_ack_prefix = "GotAck_"
let known_val_rel = "KnownVal"
let got_req_rel = "GotReq"
let got_ok_rel = "GotOk"

type derivation = {
  local : Instance.t;
  stored : Instance.t;  (* input facts stored as [Got_R] *)
  delivered : Instance.t;  (* input facts delivered as [FMsg_R] *)
  collected : Instance.t;  (* local ∪ stored ∪ delivered *)
  id : Value.t option;
  my_adom : Value.Set.t;
  requests : (Value.t * Value.t) list;  (* [GotReq] and [Req] pairs *)
  responsible : Value.Set.t;
      (* the values of [MyAdom] and of the requests whose
         [policy_R(a,...,a)] row D shows *)
  unresolved : Value.Set.t;
      (* with an [Id], the values of [MyAdom] neither own nor OK'd *)
}

(* Pairs (z, a) from a binary relation plus its delivered counterpart. *)
let pairs_of d rels =
  List.concat_map
    (fun rel ->
      List.filter_map
        (fun f ->
          if Fact.arity f = 2 then Some (Fact.arg f 0, Fact.arg f 1) else None)
        (Instance.by_rel d rel))
    rels

let assemble input d =
  let local = Common.restrict_input input d in
  let stored =
    Common.unrename_input ~prefix:got_prefix input d Instance.empty
  in
  let delivered =
    Common.unrename_input ~prefix:fact_msg_prefix input d Instance.empty
  in
  let id = Common.my_id d in
  let my_adom = Common.my_adom d in
  let requests = pairs_of d [ got_req_rel; req_rel ] in
  let responsible =
    Value.Set.filter
      (Common.responsible_value input d)
      (List.fold_left
         (fun acc (_, a) -> Value.Set.add a acc)
         my_adom requests)
  in
  let unresolved =
    match id with
    | None -> Value.Set.empty
    | Some x ->
      let oked =
        List.fold_left
          (fun acc (z, a) ->
            if Value.equal z x then Value.Set.add a acc else acc)
          Value.Set.empty
          (pairs_of d [ got_ok_rel; ok_rel ])
      in
      Value.Set.diff my_adom (Value.Set.union responsible oked)
  in
  {
    local;
    stored;
    delivered;
    collected = Instance.union local (Instance.union stored delivered);
    id;
    my_adom;
    requests;
    responsible;
    unresolved;
  }

let slot : derivation Common.slot = Common.slot ()
let derive input d = Common.once slot assemble input d
let collected input d = (derive input d).collected

let complete input d =
  let x = derive input d in
  Option.is_some x.id && Value.Set.is_empty x.unresolved

(* Has requester [z] acknowledged [f] (a stored [GotAck_R] or a just
   delivered [AckMsg_R] row [(z, ā)])? *)
let acked d z f =
  let args = Array.append [| z |] f.Fact.args in
  Instance.mem (Fact.make_array (got_ack_prefix ^ Fact.rel f) args) d
  || Instance.mem (Fact.make_array (ack_msg_prefix ^ Fact.rel f) args) d

let q_snd input d =
  let x = derive input d in
  let out = ref Instance.empty in
  let add f = out := Instance.add f !out in
  (* 1. Broadcast the local active domain. *)
  Value.Set.iter
    (fun a -> add (Fact.make val_msg_rel [ a ]))
    (Instance.adom x.local);
  (match x.id with
  | None -> ()
  | Some me ->
    (* 2. Request every unresolved value of MyAdom. *)
    Value.Set.iter (fun a -> add (Fact.make req_rel [ me; a ])) x.unresolved;
    (* 3. Acknowledge every collected response fact. *)
    let ack f =
      add (Fact.make_array (ack_msg_prefix ^ Fact.rel f)
             (Array.append [| me |] f.Fact.args))
    in
    Instance.iter ack x.stored;
    Instance.iter ack x.delivered);
  (* 4. Answer remembered requests for values we are responsible for. *)
  List.iter
    (fun (z, a) ->
      if Value.Set.mem a x.responsible then begin
        let mine =
          Instance.filter
            (fun f -> Array.exists (Value.equal a) f.Fact.args)
            x.local
        in
        Instance.iter
          (fun f ->
            add (Fact.make_array (fact_msg_prefix ^ Fact.rel f) f.Fact.args))
          mine;
        if Instance.for_all (acked d z) mine then
          add (Fact.make ok_rel [ z; a ])
      end)
    x.requests;
  !out

(* Only the memory rows D lacks: every memory row of D is already
   stored, and the memory is inflationary. *)
let q_ins input d =
  let x = derive input d in
  let out = ref Instance.empty in
  let add f = if not (Instance.mem f d) then out := Instance.add f !out in
  (* Persist MyAdom. *)
  Value.Set.iter (fun a -> add (Fact.make known_val_rel [ a ])) x.my_adom;
  (* Persist delivered response facts, requests, OKs and acks. *)
  out := Common.missing_copies ~prefix:got_prefix x.delivered d !out;
  List.iter
    (fun (z, a) -> add (Fact.make got_req_rel [ z; a ]))
    (pairs_of d [ req_rel ]);
  List.iter
    (fun (z, a) -> add (Fact.make got_ok_rel [ z; a ]))
    (pairs_of d [ ok_rel ]);
  Common.fold_prefixed ~prefix:ack_msg_prefix
    (fun base f () ->
      add (Fact.make_array (got_ack_prefix ^ base) f.Fact.args))
    d ();
  !out

let q_out q input d =
  if complete input d then Query.apply q (collected input d)
  else Instance.empty

let transducer (q : Query.t) =
  let input = q.Query.input in
  let message =
    Schema.of_list [ (val_msg_rel, 1); (req_rel, 2); (ok_rel, 2) ]
    |> Schema.union (Common.rename_schema ~prefix:fact_msg_prefix input)
    |> Schema.union
         (Schema.of_list
            (List.map
               (fun (r, k) -> (ack_msg_prefix ^ r, k + 1))
               (Schema.relations input)))
  in
  let memory =
    Schema.of_list [ (known_val_rel, 1); (got_req_rel, 2); (got_ok_rel, 2) ]
    |> Schema.union (Common.rename_schema ~prefix:got_prefix input)
    |> Schema.union
         (Schema.of_list
            (List.map
               (fun (r, k) -> (got_ack_prefix ^ r, k + 1))
               (Schema.relations input)))
  in
  let schema =
    Network.Transducer_schema.make ~input ~output:q.Query.output ~message
      ~memory ()
  in
  Network.Transducer.make ~schema
    ~out:(q_out q input)
    ~ins:(q_ins input)
    ~snd:(q_snd input) ()
