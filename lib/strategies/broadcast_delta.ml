open Relational

let sent_prefix = "Sent_"

type derivation = {
  facts : Broadcast.derivation;
  unsent : Instance.t;  (* local facts without a [Sent_R] marker in D *)
}

let assemble input d =
  let facts = Broadcast.derive input d in
  {
    facts;
    unsent =
      Instance.filter
        (fun f ->
          not
            (Instance.mem
               (Fact.make_array (sent_prefix ^ Fact.rel f) f.Fact.args)
               d))
        facts.Broadcast.local;
  }

let slot : derivation Common.slot = Common.slot ()
let derive input d = Common.once slot assemble input d

let transducer (q : Query.t) =
  let input = q.Query.input in
  let schema =
    Network.Transducer_schema.make ~input ~output:q.Query.output
      ~message:(Common.rename_schema ~prefix:Broadcast.msg_prefix input)
      ~memory:
        (Schema.union
           (Common.rename_schema ~prefix:Broadcast.mem_prefix input)
           (Common.rename_schema ~prefix:sent_prefix input))
      ()
  in
  Network.Transducer.make ~schema
    ~out:(fun d -> Query.apply q (derive input d).facts.Broadcast.known)
    ~ins:(fun d ->
      let x = derive input d in
      Broadcast.stored_copies ~prefix:Broadcast.mem_prefix x.facts d
        (Common.rename ~prefix:sent_prefix x.unsent))
    ~snd:(fun d ->
      Common.rename ~prefix:Broadcast.msg_prefix (derive input d).unsent)
    ()
