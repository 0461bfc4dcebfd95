(* Golden-test runner: lints one fixture and prints the human and JSON
   renderings. Options come from the fixture's own [% calm-lint:] pragma;
   the file name is reduced to its basename so the expected output is
   independent of the build path. *)

let () =
  let path = Sys.argv.(1) in
  let ic = open_in_bin path in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let file = Filename.basename path in
  let diags = Analysis.Lint.lint_source source in
  print_endline "== human ==";
  let ppf = Format.std_formatter in
  List.iter (Analysis.Diagnostic.pp_human ~file ~source ppf) diags;
  Format.pp_print_flush ppf ();
  print_endline "== json ==";
  print_endline
    (Observe.Json.to_string_pretty
       (Analysis.Diagnostic.file_report_to_json ~file diags))
