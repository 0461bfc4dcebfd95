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

exception Unreadable of string * string

(* Directories expand to their [.dlog] files, recursively, sorted so the
   report order is stable; explicit file arguments are taken as-is. Each
   real directory is walked once, so a symlink cycle ends the walk
   instead of nesting it until the path is too long to resolve. An entry
   of a walked directory that does not resolve (a dangling link) is
   skipped unless its name ends in [.dlog]; then its report says why it
   cannot be read. *)
let collect paths =
  let walked = Hashtbl.create 16 in
  let read path f =
    try f path with
    | Sys_error msg -> raise (Unreadable (path, msg))
    | Unix.Unix_error (e, _, _) ->
      raise (Unreadable (path, Unix.error_message e))
  in
  let rec expand ~explicit acc path =
    let dlog = has_suffix ".dlog" path in
    match Sys.is_directory path with
    | exception Sys_error msg ->
      if explicit then raise (Unreadable (path, msg))
      else if dlog then path :: acc
      else acc
    | false -> if explicit || dlog then path :: acc else acc
    | true ->
      let real = read path Unix.realpath in
      if Hashtbl.mem walked real then acc
      else begin
        Hashtbl.add walked real ();
        read path Sys.readdir |> Array.to_list |> List.sort String.compare
        |> List.fold_left
             (fun acc entry ->
               expand ~explicit:false acc (Filename.concat path entry))
             acc
      end
  in
  match List.fold_left (expand ~explicit:true) [] paths with
  | files -> Ok (List.rev files)
  | exception Unreadable (path, msg) -> Error (path, msg)

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
