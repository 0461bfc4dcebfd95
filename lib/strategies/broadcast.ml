open Relational

let msg_prefix = "Msg_"
let mem_prefix = "Got_"

type derivation = {
  local : Instance.t;
  delivered : Instance.t;
  known : Instance.t;
}

let assemble input d =
  let local = Common.restrict_input input d in
  let delivered =
    Common.unrename_input ~prefix:msg_prefix input d Instance.empty
  in
  {
    local;
    delivered;
    known =
      Common.unrename_input ~prefix:mem_prefix input d
        (Instance.union local delivered);
  }

let slot : derivation Common.slot = Common.slot ()
let derive input d = Common.once slot assemble input d
let known input d = (derive input d).known

let stored_copies ~prefix x d acc =
  Common.missing_copies ~prefix x.local d
    (Common.missing_copies ~prefix x.delivered d acc)

let transducer (q : Query.t) =
  let input = q.Query.input in
  let schema =
    Network.Transducer_schema.make ~input ~output:q.Query.output
      ~message:(Common.rename_schema ~prefix:msg_prefix input)
      ~memory:(Common.rename_schema ~prefix:mem_prefix input)
      ()
  in
  Network.Transducer.make ~schema
    ~out:(fun d -> Query.apply q (known input d))
    ~ins:(fun d ->
      stored_copies ~prefix:mem_prefix (derive input d) d Instance.empty)
    ~snd:(fun d ->
      Common.rename ~prefix:msg_prefix (derive input d).local)
    ()
