(* Reference strategies: the query code of [Common], [Broadcast],
   [Absence] and [Domain_request] as it stood before range reads of D,
   certificates read off the [policy_R] rows and completeness by
   counting. Kept verbatim as a slow test-only oracle, in the style of
   [Reftransition] and [Refexplore]: every transition enumerates
   [MyAdom]^k candidate facts and scans all of D. The transition-oracle
   wall in test_network.ml runs these through [Reftransition] against the
   library's strategies through [Config.step]. *)

open Relational

module Common = struct
  let rename_schema ~prefix sg =
    Schema.of_list
      (List.map (fun (name, ar) -> (prefix ^ name, ar)) (Schema.relations sg))

  let rename ~prefix i =
    Instance.fold
      (fun f acc -> Instance.add (Fact.make (prefix ^ Fact.rel f) (Fact.args f)) acc)
      i Instance.empty

  let unrename ~prefix i =
    let pl = String.length prefix in
    Instance.fold
      (fun f acc ->
        let name = Fact.rel f in
        if String.length name > pl && String.sub name 0 pl = prefix then
          Instance.add
            (Fact.make (String.sub name pl (String.length name - pl)) (Fact.args f))
            acc
        else acc)
      i Instance.empty

  let restrict_input input d = Instance.restrict d input

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
end

module Broadcast = struct
  let msg_prefix = "Msg_"
  let mem_prefix = "Got_"

  let known input d =
    let local = Common.restrict_input input d in
    let stored = Common.unrename ~prefix:mem_prefix d in
    let delivered = Common.unrename ~prefix:msg_prefix d in
    Instance.union local
      (Instance.union
         (Instance.restrict stored input)
         (Instance.restrict delivered input))

  let transducer (q : Query.t) =
    let schema =
      Network.Transducer_schema.make ~input:q.Query.input ~output:q.Query.output
        ~message:(Common.rename_schema ~prefix:msg_prefix q.Query.input)
        ~memory:(Common.rename_schema ~prefix:mem_prefix q.Query.input)
        ()
    in
    Network.Transducer.make ~schema
      ~out:(fun d -> Query.apply q (known q.Query.input d))
      ~ins:(fun d -> Common.rename ~prefix:mem_prefix (known q.Query.input d))
      ~snd:(fun d ->
        Common.rename ~prefix:msg_prefix (Common.restrict_input q.Query.input d))
      ()
end

module Absence = struct
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

  let certified_absences input d =
    let local = Common.restrict_input input d in
    let a = Common.my_adom d in
    List.fold_left
      (fun acc f ->
        if Common.responsible_fact d f && not (Instance.mem f local) then
          Instance.add f acc
        else acc)
      Instance.empty
      (Schema.all_facts input a)

  let complete input d =
    let known = Broadcast.known input d in
    let absent =
      Instance.union (known_absent input d) (certified_absences input d)
    in
    let a = Common.my_adom d in
    List.for_all
      (fun f -> Instance.mem f known || Instance.mem f absent)
      (Schema.all_facts input a)

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
        if complete input d then Query.apply q (Broadcast.known input d)
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
end

module Domain_request = struct
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
     schema. *)
  let acks_from d z =
    List.fold_left
      (fun acc f ->
        let rel = Fact.rel f in
        let prefix_len_mem = String.length got_ack_prefix in
        let prefix_len_msg = String.length ack_msg_prefix in
        let base =
          if
            String.length rel > prefix_len_mem
            && String.sub rel 0 prefix_len_mem = got_ack_prefix
          then Some (String.sub rel prefix_len_mem (String.length rel - prefix_len_mem))
          else if
            String.length rel > prefix_len_msg
            && String.sub rel 0 prefix_len_msg = ack_msg_prefix
          then Some (String.sub rel prefix_len_msg (String.length rel - prefix_len_msg))
          else None
        in
        match base with
        | Some base when Fact.arity f >= 2 && Value.equal (Fact.arg f 0) z ->
          Instance.add
            (Fact.make base (List.tl (Fact.args f)))
            acc
        | _ -> acc)
      Instance.empty (Instance.to_list d)

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
    Instance.iter
      (fun f ->
        let rel = Fact.rel f in
        let pl = String.length ack_msg_prefix in
        if String.length rel > pl && String.sub rel 0 pl = ack_msg_prefix then
          add
            (Fact.make
               (got_ack_prefix ^ String.sub rel pl (String.length rel - pl))
               (Fact.args f))
        else if
          String.length rel > String.length got_ack_prefix
          && String.sub rel 0 (String.length got_ack_prefix) = got_ack_prefix
        then add f)
      d;
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
end
