(* Reference transducer transition: the whole-state [Config.transition]
   as it stood before the per-run context ([Config.prepare] /
   [Config.step]), kept as a slow test-only oracle in the style of
   [Datalog.Refeval]. Every call redistributes the whole input with
   [Policy.dist] and walks every buffer against the recipient list; the
   differential wall in test_network.ml holds the prepared path to it.

   The one departure from the original is that no telemetry is
   recorded: metrics are not part of what the wall compares. *)

open Relational
open Network

let transition ~(variant : Config.variant) ~policy ~transducer ~input
    (t : Config.t) ~node:x ~deliver =
  let schema = transducer.Transducer.schema in
  let network = Policy.network policy in
  if not (List.exists (Value.equal x) network) then
    invalid_arg ("Config.transition: node not in network: " ^ Value.to_string x);
  let buf_x = Config.buffer_of t x in
  if not (Multiset.sub deliver buf_x) then
    invalid_arg "Config.transition: deliver is not a submultiset of the buffer";
  let h = Policy.dist policy (Instance.restrict input schema.Transducer_schema.input) in
  let local_input = Distributed.local h x in
  let s1 = Config.state_of t x in
  let m = Instance.of_set (Multiset.support deliver) in
  let j = Instance.union local_input (Instance.union s1 m) in
  let a =
    let from_j = Instance.adom j in
    if variant.Config.with_all then
      List.fold_left (fun acc y -> Value.Set.add y acc) from_j network
    else Value.Set.add x from_j
  in
  let s = Config.system_facts variant policy network x a in
  let d = Instance.union j s in
  let out_new = Instance.restrict (transducer.Transducer.q_out d) schema.Transducer_schema.output in
  let ins = Instance.restrict (transducer.Transducer.q_ins d) schema.Transducer_schema.memory in
  let del = Instance.restrict (transducer.Transducer.q_del d) schema.Transducer_schema.memory in
  let snd = Instance.restrict (transducer.Transducer.q_snd d) schema.Transducer_schema.message in
  let mem1 = Instance.restrict s1 schema.Transducer_schema.memory in
  let out1 = Instance.restrict s1 schema.Transducer_schema.output in
  let mem2 =
    Instance.diff
      (Instance.union mem1 (Instance.diff ins del))
      (Instance.diff del ins)
  in
  let out2 = Instance.union out1 out_new in
  let s2 = Instance.union out2 mem2 in
  let state = Value.Map.add x s2 t.Config.state in
  let snd_ms = Multiset.of_instance snd in
  let recipients = List.filter (fun y -> not (Value.equal y x)) network in
  let buffer =
    Value.Map.mapi
      (fun y b ->
        if Value.equal y x then Multiset.diff b deliver
        else if List.exists (Value.equal y) recipients then
          Multiset.union b snd_ms
        else b)
      t.Config.buffer
  in
  let stats =
    {
      Config.messages_sent = Multiset.size snd_ms * List.length recipients;
      delivered = Multiset.size deliver;
      sent_facts = snd;
      output_delta = Instance.diff out2 out1;
    }
  in
  ({ Config.state; buffer }, stats)
