(* calm_repl — an interactive Datalog¬ shell over the library.

   Lines containing ':-' are rules (accumulated into the program); lines
   like 'E(1,2).' are facts (accumulated into the instance); ':'-commands
   drive evaluation, classification, and network simulation. Reads stdin,
   so it is scriptable:  echo '...' | dune exec bin/calm_repl.exe *)

open Relational

type state = {
  mutable rules : Datalog.Ast.program;
  mutable facts : Instance.t;
}

let state = { rules = []; facts = Instance.empty }

let help () =
  print_string
    "commands:\n\
    \  <rule>.            add a rule        (anything containing ':-')\n\
    \  <fact>.            add input facts   (e.g. E(1,2).)\n\
    \  :run               evaluate (stratified; falls back to well-founded)\n\
    \  :classify          fragment, CALM level, points of order\n\
    \  :simulate N        run the compiled strategy on N simulated nodes\n\
    \  :rules / :facts    show current program / instance\n\
    \  :load FILE         load rules from FILE\n\
    \  :clear             forget rules and facts\n\
    \  :help / :quit\n"

let program_of_rules () =
  Datalog.Adom.augment state.rules

let outputs_of_rules rules =
  List.map (fun (r : Datalog.Ast.rule) -> r.Datalog.Ast.head.Datalog.Ast.pred) rules
  |> List.sort_uniq String.compare
  |> List.filter (fun p -> p <> Datalog.Adom.predicate)

let with_program k =
  if state.rules = [] then print_endline "no rules yet (type one, or :help)"
  else
    let rules = program_of_rules () in
    let outputs = outputs_of_rules state.rules in
    k rules outputs

let run () =
  with_program (fun rules outputs ->
      match Datalog.Eval.stratified rules state.facts with
      | Ok full ->
        let out = Instance.restrict_rels full outputs in
        Printf.printf "%s\n" (Instance.to_string out)
      | Error _ ->
        let m = Datalog.Wellfounded.eval rules state.facts in
        Printf.printf "well-founded: true = %s; undefined = %s\n"
          (Instance.to_string
             (Instance.restrict_rels m.Datalog.Wellfounded.true_facts outputs))
          (Instance.to_string
             (Instance.restrict_rels m.Datalog.Wellfounded.undefined outputs)))

let classify () =
  with_program (fun rules _ ->
      Printf.printf "fragment:        %s\n"
        (Datalog.Fragment.to_string (Datalog.Fragment.classify rules));
      Printf.printf "connectivity:    %s\n" (Datalog.Connectivity.explain rules);
      Printf.printf "points of order: %s\n"
        (Datalog.Points_of_order.coordination_level rules);
      let level =
        Calm_core.Hierarchy.of_fragment (Datalog.Fragment.classify rules)
      in
      Printf.printf "CALM level:      %s (model: %s)\n"
        (Calm_core.Hierarchy.to_string level)
        (Calm_core.Hierarchy.transducer_model level))

let simulate n =
  with_program (fun _rules outputs ->
      match
        Datalog.Program.parse ~outputs
          (Datalog.Ast.to_string state.rules)
      with
      | exception Invalid_argument msg -> Printf.printf "cannot simulate: %s\n" msg
      | program ->
        let compiled = Calm_core.Compile.compile_program program in
        let network =
          Distributed.network_of_ints (List.init (max n 1) (fun i -> i + 1))
        in
        let policy =
          Network.Policy.hash_value compiled.Calm_core.Compile.query.Query.input
            network
        in
        let result =
          Network.Run.run ~variant:compiled.Calm_core.Compile.variant ~policy
            ~transducer:compiled.Calm_core.Compile.transducer
            ~input:state.facts Network.Run.Round_robin
        in
        let expected = Datalog.Program.run program state.facts in
        Printf.printf
          "level=%s nodes=%d quiesced=%b messages=%d correct=%b\n\
           output: %s\n"
          (Calm_core.Hierarchy.to_string compiled.Calm_core.Compile.level)
          n result.Network.Run.quiesced result.Network.Run.messages_sent
          (Instance.equal result.Network.Run.outputs expected)
          (Instance.to_string result.Network.Run.outputs))

let add_line line =
  let contains_turnstile =
    let rec go i =
      i + 1 < String.length line
      && ((line.[i] = ':' && line.[i + 1] = '-') || go (i + 1))
    in
    go 0
  in
  if contains_turnstile then (
    match Datalog.Parser.parse_program line with
    | rules ->
      state.rules <- state.rules @ rules;
      Printf.printf "added %d rule(s)\n" (List.length rules)
    | exception Datalog.Parser.Syntax_error { line; col; message } ->
      Printf.printf "syntax error (line %d, column %d): %s\n" line col message)
  else
    match Io.parse_facts line with
    | facts ->
      state.facts <- Instance.union state.facts facts;
      Printf.printf "added %d fact(s), instance now %d\n"
        (Instance.cardinal facts)
        (Instance.cardinal state.facts)
    | exception Invalid_argument msg -> Printf.printf "error: %s\n" msg

let load file =
  match open_in file with
  | exception Sys_error e -> Printf.printf "error: %s\n" e
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    add_line s

let handle line =
  let line = String.trim line in
  if line = "" then ()
  else if line.[0] = ':' then begin
    match String.split_on_char ' ' line with
    | ":quit" :: _ | ":q" :: _ -> raise Exit
    | ":help" :: _ -> help ()
    | ":run" :: _ -> run ()
    | ":classify" :: _ -> classify ()
    | ":simulate" :: arg :: _ ->
      (match int_of_string_opt arg with
      | Some n -> simulate n
      | None -> print_endline "usage: :simulate N")
    | ":simulate" :: _ -> simulate 3
    | ":rules" :: _ ->
      if state.rules = [] then print_endline "(none)"
      else print_endline (Datalog.Ast.to_string state.rules)
    | ":facts" :: _ -> print_endline (Instance.to_string state.facts)
    | ":load" :: file :: _ -> load file
    | ":clear" :: _ ->
      state.rules <- [];
      state.facts <- Instance.empty;
      print_endline "cleared"
    | cmd :: _ -> Printf.printf "unknown command %s (:help)\n" cmd
    | [] -> ()
  end
  else add_line line

let () =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "calm repl — Datalog¬ + CALM hierarchy (:help for commands)"
  end;
  try
    while true do
      if interactive then (print_string "calm> "; flush stdout);
      match input_line stdin with
      | line -> handle line
      | exception End_of_file -> raise Exit
    done
  with Exit -> if interactive then print_endline "bye"
