(* Hierarchy explorer: feed any Datalog¬ program and learn (a) its
   syntactic fragment, (b) its guaranteed CALM level, (c) its empirical
   monotonicity placement with counterexamples, and (d) whether the
   compiled coordination-free strategy actually computes it on a simulated
   network.

   Usage:
     dune exec examples/hierarchy_explorer.exe -- --program 'O(x,y) :- E(x,y).'
     dune exec examples/hierarchy_explorer.exe -- --file prog.dl --facts 'E(1,2). E(2,3)'
     dune exec examples/hierarchy_explorer.exe -- --demo comp-tc *)

open Relational
open Cmdliner

let demos =
  [
    ("tc", (Queries.Zoo.tc_program, [ "T" ]));
    ("comp-tc", (Queries.Zoo.comp_tc_program, [ "O" ]));
    ("p1", (Queries.Zoo.example_51_p1, [ "O" ]));
    ("p2", (Queries.Zoo.example_51_p2, [ "O" ]));
  ]

let parse_facts s =
  s
  |> String.split_on_char '.'
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None else Some (Fact.of_string part))
  |> Instance.of_list

let default_input schema =
  (* A small generic input: a path over each binary relation, a couple of
     unary facts. *)
  List.fold_left
    (fun acc (name, ar) ->
      List.fold_left
        (fun acc k ->
          Instance.add
            (Fact.make name (List.init ar (fun i -> Value.Int (k + i))))
            acc)
        acc [ 1; 2; 3 ])
    Instance.empty
    (Schema.relations schema)

let explore src outputs facts verify =
  let program =
    try Datalog.Program.parse ~outputs src with
    | Datalog.Parser.Syntax_error { line; col; message } ->
      Printf.eprintf "syntax error (line %d, column %d): %s\n" line col message;
      exit 1
    | Invalid_argument msg ->
      Printf.eprintf "invalid program: %s\n" msg;
      exit 1
  in
  let fragment = Datalog.Program.fragment program in
  Printf.printf "fragment:          %s\n" (Datalog.Fragment.to_string fragment);
  Printf.printf "connectivity:      %s\n"
    (Datalog.Connectivity.explain program.Datalog.Program.rules);
  let syntactic = Calm_core.Hierarchy.of_fragment fragment in
  Printf.printf "syntactic level:   %s (class %s, model %s)\n"
    (Calm_core.Hierarchy.to_string syntactic)
    (Calm_core.Hierarchy.monotonicity_class syntactic)
    (Calm_core.Hierarchy.transducer_model syntactic);

  let q = Datalog.Program.query ~name:"program" program in
  let bounds =
    { Monotone.Checker.dom_size = 3; fresh = 2; max_base = 3; max_ext = 2 }
  in
  let placement = Monotone.Checker.place ~bounds q in
  Printf.printf "empirical level:   %s (bounded check)\n"
    (Monotone.Checker.strongest placement);
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Monotone.Checker.No_violation { pairs } ->
        Printf.printf "  %-10s no violation in %d admissible pairs\n" name pairs
      | Monotone.Checker.Violated v ->
        Printf.printf "  %-10s VIOLATED: %s\n" name
          (Format.asprintf "%a" Monotone.Classes.pp_violation v))
    [
      ("M", placement.Monotone.Checker.plain);
      ("Mdistinct", placement.Monotone.Checker.distinct);
      ("Mdisjoint", placement.Monotone.Checker.disjoint);
    ];

  let input =
    match facts with
    | Some s -> parse_facts s
    | None -> default_input (Datalog.Program.input_schema program)
  in
  Printf.printf "\ninput I = %s\n" (Instance.to_string input);
  Printf.printf "Q(I)    = %s\n" (Instance.to_string (Datalog.Program.run program input));

  if verify then begin
    print_endline "\nverifying the compiled strategy...";
    let compiled = Calm_core.Compile.compile_program ~bounds program in
    let network = Distributed.network_of_ints [ 1; 2; 3 ] in
    let report = Calm_core.Verify.check compiled ~inputs:[ input ] network in
    Format.printf "%a@." Calm_core.Verify.pp_report report
  end

let src_term =
  let program =
    Arg.(value & opt (some string) None & info [ "program"; "p" ] ~doc:"Program text.")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc:"Program file.")
  in
  let demo =
    Arg.(
      value
      & opt (some (enum (List.map (fun (k, _) -> (k, k)) demos))) None
      & info [ "demo" ] ~doc:"Built-in demo program (tc, comp-tc, p1, p2).")
  in
  let combine program file demo =
    match (program, file, demo) with
    | Some s, None, None -> `Ok (s, [ "O" ])
    | None, Some f, None ->
      let ic = open_in f in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      `Ok (s, [ "O" ])
    | None, None, Some d -> `Ok (List.assoc d demos)
    | None, None, None -> `Ok (List.assoc "comp-tc" demos)
    | _ -> `Error (false, "give at most one of --program, --file, --demo")
  in
  Term.(ret (const combine $ program $ file $ demo))

let facts_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "facts" ] ~doc:"Input facts, e.g. 'E(1,2). E(2,3)'.")

let verify_term =
  Arg.(value & flag & info [ "verify" ] ~doc:"Run the compiled strategy on a simulated network.")

let cmd =
  let doc = "place a Datalog¬ program in the refined CALM hierarchy" in
  Cmd.v
    (Cmd.info "hierarchy_explorer" ~doc)
    Term.(
      const (fun (src, outputs) facts verify -> explore src outputs facts verify)
      $ src_term $ facts_term $ verify_term)

let () = exit (Cmd.eval cmd)
