(* Multi-file lint driver: expands directories to [.dlog] files, fans the
   per-file analysis out over a {!Parallel.Pool}, and renders the
   aggregate in any of the three formats. Lint verdicts are pure
   functions of file contents, so the fan-out is deterministic. *)

module Json = Observe.Json

type file_report = {
  path : string;
  source : string;  (** "" when the file could not be read *)
  diagnostics : Diagnostic.t list;
}

let has_suffix suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Directories expand to their [.dlog] files, recursively, sorted so the
   report order is stable; explicit file arguments are taken as-is. *)
let collect paths =
  let rec expand acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun entry ->
             let child = Filename.concat path entry in
             if Sys.is_directory child || has_suffix ".dlog" child then
               Some child
             else None)
      |> List.fold_left expand acc
    else path :: acc
  in
  match List.fold_left expand [] paths with
  | files -> Ok (List.rev files)
  | exception Sys_error msg -> Error msg

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ~options path =
  match read_file path with
  | source -> { path; source; diagnostics = Lint.lint_source ~options source }
  | exception Sys_error msg ->
    {
      path;
      source = "";
      diagnostics =
        [
          Diagnostic.make ~code:"CALM000" ~severity:Diagnostic.Error
            ~span:Datalog.Ast.Span.dummy
            (Printf.sprintf "cannot read file: %s" msg);
        ];
    }

let run ?(options = Lint.default_options) ?jobs paths =
  Parallel.Pool.with_pool ?jobs (fun pool ->
      Parallel.Pool.map pool (lint_file ~options) paths)

let total severity reports =
  List.fold_left (fun n r -> n + Diagnostic.count severity r.diagnostics) 0 reports

(* ------------------------------------------------------------------ *)
(* Renderers *)

let render_human reports =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun r ->
      List.iter
        (fun d ->
          Diagnostic.pp_human ~file:r.path ~source:r.source ppf d)
        r.diagnostics)
    reports;
  let errors = total Diagnostic.Error reports
  and warnings = total Diagnostic.Warning reports in
  if errors + warnings > 0 || reports <> [] then
    Format.fprintf ppf "%d file%s checked: %d error%s, %d warning%s@."
      (List.length reports)
      (if List.length reports = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s");
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_json reports =
  Json.to_string_pretty
    (Json.Obj
       [
         ("errors", Json.Int (total Diagnostic.Error reports));
         ("warnings", Json.Int (total Diagnostic.Warning reports));
         ( "files",
           Json.List
             (List.map
                (fun r ->
                  Diagnostic.file_report_to_json ~file:r.path r.diagnostics)
                reports) );
       ])
  ^ "\n"

let render_sarif reports =
  Json.to_string_pretty
    (Diagnostic.sarif_report
       (List.map (fun r -> (r.path, r.diagnostics)) reports))
  ^ "\n"
