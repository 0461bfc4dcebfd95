open Relational

type semantics =
  | Stratified
  | Well_founded

type t = {
  rules : Ast.program;
  outputs : string list;
  semantics : semantics;
}

let make ?(outputs = [ "O" ]) ?(semantics = Stratified) rules =
  let rules = Adom.augment rules in
  let idb = Ast.idb rules in
  List.iter
    (fun o ->
      if not (Schema.mem idb o) then
        invalid_arg
          (Printf.sprintf "Program.make: output relation %s is not derived" o))
    outputs;
  (match semantics with
  | Stratified -> (
    match Stratify.stratify rules with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Program.make: " ^ e))
  | Well_founded -> ());
  { rules; outputs; semantics }

let parse ?outputs ?semantics src =
  make ?outputs ?semantics (Parser.parse_program src)

let input_schema t = Ast.edb t.rules
let output_schema t = Schema.restrict (Ast.idb t.rules) t.outputs
let fragment t = Fragment.classify t.rules

let run t i =
  let full =
    match t.semantics with
    | Stratified -> Eval.stratified_exn t.rules i
    | Well_founded -> (Wellfounded.eval t.rules i).true_facts
  in
  Instance.restrict_rels full t.outputs

(* Stratified programs answer the scan's probes incrementally: the
   program is compiled once here ({!Ivm.compile}), staging materializes
   the model of the base once ({!Ivm.materialize}), and each probe
   returns the output facts {!Ivm.lost} finds, which derives only what a
   loss could depend on and builds the model of [base ∪ Δ] only when a
   grown negated fact blocks an old firing. Well-founded programs have
   no maintenance route and evaluate. *)
let query ~name t =
  let maintain =
    match t.semantics with
    | Well_founded -> None
    | Stratified ->
      let compiled = Ivm.compile t.rules in
      Some
        (fun base ->
          let h = Ivm.materialize compiled base in
          fun (d : Query.delta) ->
            Instance.restrict_rels (Ivm.lost h d.Query.facts) t.outputs)
  in
  Query.make ?maintain ~constants:(Ast.constants t.rules) ~name
    ~input:(input_schema t) ~output:(output_schema t) (run t)
