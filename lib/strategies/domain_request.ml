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

let collected input d =
  let local = Common.restrict_input input d in
  let stored = Instance.restrict (Common.unrename ~prefix:got_prefix d) input in
  let delivered =
    Instance.restrict (Common.unrename ~prefix:fact_msg_prefix d) input
  in
  Instance.union local (Instance.union stored delivered)

(* Pairs (z, a) from a binary relation plus its delivered counterpart. *)
let pairs_of d rels =
  List.concat_map
    (fun rel ->
      List.filter_map
        (fun f ->
          if Fact.arity f = 2 then Some (Fact.arg f 0, Fact.arg f 1) else None)
        (Instance.by_rel d rel))
    rels

let has_ok d x a =
  List.exists
    (fun (z, b) -> Value.equal z x && Value.equal b a)
    (pairs_of d [ got_ok_rel; ok_rel ])

let complete input d =
  match Common.my_id d with
  | None -> false
  | Some x ->
    let c = Common.my_adom d in
    Value.Set.for_all
      (fun a -> Common.responsible_value input d a || has_ok d x a)
      c

(* Acks this node has seen from requester z, as a fact set over the input
   schema: range reads of the stored and the delivered ack relations. *)
let acks_from d z =
  let from prefix acc =
    Common.fold_prefixed ~prefix
      (fun base f acc ->
        if Fact.arity f >= 2 && Value.equal (Fact.arg f 0) z then
          Instance.add (Fact.make base (List.tl (Fact.args f))) acc
        else acc)
      d acc
  in
  from got_ack_prefix (from ack_msg_prefix Instance.empty)

let requests_seen d = pairs_of d [ got_req_rel; req_rel ]

let q_snd input d =
  let local = Common.restrict_input input d in
  let out = ref Instance.empty in
  let add f = out := Instance.add f !out in
  (* 1. Broadcast the local active domain. *)
  Value.Set.iter
    (fun a -> add (Fact.make val_msg_rel [ a ]))
    (Instance.adom local);
  (match Common.my_id d with
  | None -> ()
  | Some x ->
    (* 2. Request every unresolved value of MyAdom. *)
    Value.Set.iter
      (fun a ->
        if (not (Common.responsible_value input d a)) && not (has_ok d x a)
        then add (Fact.make req_rel [ x; a ]))
      (Common.my_adom d);
    (* 3. Acknowledge every collected response fact. *)
    Instance.iter
      (fun f ->
        add (Fact.make (ack_msg_prefix ^ Fact.rel f) (x :: Fact.args f)))
      (Instance.restrict (Common.unrename ~prefix:got_prefix d) input);
    Instance.iter
      (fun f ->
        add (Fact.make (ack_msg_prefix ^ Fact.rel f) (x :: Fact.args f)))
      (Instance.restrict (Common.unrename ~prefix:fact_msg_prefix d) input));
  (* 4. Answer remembered requests for values we are responsible for. *)
  List.iter
    (fun (z, a) ->
      if Common.responsible_value input d a then begin
        let mine =
          Instance.filter (fun f -> Value.Set.mem a (Fact.adom f)) local
        in
        Instance.iter
          (fun f -> add (Fact.make (fact_msg_prefix ^ Fact.rel f) (Fact.args f)))
          mine;
        let acked = acks_from d z in
        if Instance.for_all (fun f -> Instance.mem f acked) mine then
          add (Fact.make ok_rel [ z; a ])
      end)
    (requests_seen d);
  !out

let q_ins input d =
  let out = ref Instance.empty in
  let add f = out := Instance.add f !out in
  (* Persist MyAdom. *)
  Value.Set.iter
    (fun a -> add (Fact.make known_val_rel [ a ]))
    (Common.my_adom d);
  (* Persist collected response facts. *)
  Instance.iter
    (fun f -> add (Fact.make (got_prefix ^ Fact.rel f) (Fact.args f)))
    (Instance.restrict (Common.unrename ~prefix:fact_msg_prefix d) input);
  Instance.iter
    (fun f -> add (Fact.make (got_prefix ^ Fact.rel f) (Fact.args f)))
    (Instance.restrict (Common.unrename ~prefix:got_prefix d) input);
  (* Persist requests, acks, OKs. *)
  List.iter
    (fun (z, a) -> add (Fact.make got_req_rel [ z; a ]))
    (requests_seen d);
  List.iter
    (fun (z, a) -> add (Fact.make got_ok_rel [ z; a ]))
    (pairs_of d [ ok_rel; got_ok_rel ]);
  Common.fold_prefixed ~prefix:ack_msg_prefix
    (fun base f () ->
      add (Fact.make_array (got_ack_prefix ^ base) f.Fact.args))
    d ();
  Common.fold_prefixed ~prefix:got_ack_prefix (fun _ f () -> add f) d ();
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
