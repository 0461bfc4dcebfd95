open Datalog
module Span = Ast.Span
module Json = Observe.Json

type severity =
  | Error
  | Warning
  | Info

type note = {
  note_span : Span.t;  (** {!Span.dummy} for location-free notes *)
  note_message : string;
}

type fixit = {
  fix_span : Span.t;
  replacement : string;
}

type t = {
  code : string;
  severity : severity;
  span : Span.t;
  message : string;
  notes : note list;
  fixits : fixit list;
}

(* The stable code registry. Renderers (SARIF rule table, README) derive
   from this list; the lint engine may only emit codes listed here
   (enforced by the test suite). *)
let codes =
  [
    ("CALM000", "syntax error");
    ("CALM001", "variable not bound by a positive body atom");
    ("CALM002", "invention slot in a body literal");
    ("CALM003", "unstratifiable: cycle through negation");
    ("CALM004", "unconnected rule (graph+ falls apart)");
    ("CALM005", "in-set negation breaks semi-connectedness");
    ("CALM006", "negation of an intensional predicate under an SP claim");
    ("CALM007", "duplicate or subsumed rule");
    ("CALM008", "predicate unused by any output relation");
    ("CALM009", "extensional or reserved predicate used as a rule head");
    ("CALM010", "point of order: negation requiring runtime knowledge");
    ("CALM011", "predicate used with conflicting arities");
    ("CALM012", "rule has no positive body literal");
    ("CALM013", "program does not belong to the claimed fragment");
  ]

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let make ?(notes = []) ?(fixits = []) ~code ~severity ~span message =
  if not (List.mem_assoc code codes) then
    invalid_arg (Printf.sprintf "Diagnostic.make: unknown code %s" code);
  { code; severity; span; message; notes; fixits }

let note ?(span = Span.dummy) note_message = { note_span = span; note_message }

(* Source order, then severity (errors first), then code: stable under
   any lint-rule evaluation order. *)
let compare_diag a b =
  let pos (s : Span.t) = (s.start.line, s.start.col, s.stop.line, s.stop.col) in
  let rank = function Error -> 0 | Warning -> 1 | Info -> 2 in
  let c = compare (pos a.span) (pos b.span) in
  if c <> 0 then c
  else
    let c = compare (rank a.severity) (rank b.severity) in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.stable_sort compare_diag ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

(* ------------------------------------------------------------------ *)
(* Human rendering with caret underlines *)

let split_lines source = String.split_on_char '\n' source

let pp_snippet ppf ~lines (span : Span.t) =
  if not (Span.is_dummy span) then
    match List.nth_opt lines (span.start.line - 1) with
    | None -> ()
    | Some text ->
      let gutter = string_of_int span.start.line in
      Format.fprintf ppf "  %s | %s@." gutter text;
      let width =
        if span.stop.line = span.start.line then
          max 1 (span.stop.col - span.start.col)
        else max 1 (String.length text - span.start.col + 1)
      in
      let width = min width (max 1 (String.length text - span.start.col + 1)) in
      Format.fprintf ppf "  %s | %s%s@."
        (String.make (String.length gutter) ' ')
        (String.make (max 0 (span.start.col - 1)) ' ')
        (String.make width '^')

let pp_human ~file ~source ppf d =
  let lines = split_lines source in
  let loc =
    if Span.is_dummy d.span then file
    else Printf.sprintf "%s:%d:%d" file d.span.start.line d.span.start.col
  in
  Format.fprintf ppf "%s: %s[%s]: %s@." loc
    (severity_to_string d.severity)
    d.code d.message;
  pp_snippet ppf ~lines d.span;
  List.iter
    (fun n ->
      if Span.is_dummy n.note_span then
        Format.fprintf ppf "  note: %s@." n.note_message
      else begin
        Format.fprintf ppf "  note (%s): %s@."
          (Span.to_string n.note_span)
          n.note_message;
        pp_snippet ppf ~lines n.note_span
      end)
    d.notes;
  List.iter
    (fun f ->
      Format.fprintf ppf "  fix (%s): replace with `%s`@."
        (Span.to_string f.fix_span)
        f.replacement)
    d.fixits

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let span_to_json (s : Span.t) =
  if Span.is_dummy s then Json.Null
  else
    Json.Obj
      [
        ( "start",
          Json.Obj
            [ ("line", Json.Int s.start.line); ("col", Json.Int s.start.col) ]
        );
        ( "end",
          Json.Obj
            [ ("line", Json.Int s.stop.line); ("col", Json.Int s.stop.col) ] );
      ]

let to_json d =
  Json.Obj
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_to_string d.severity));
      ("span", span_to_json d.span);
      ("message", Json.String d.message);
      ( "notes",
        Json.List
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("span", span_to_json n.note_span);
                   ("message", Json.String n.note_message);
                 ])
             d.notes) );
      ( "fixits",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("span", span_to_json f.fix_span);
                   ("replacement", Json.String f.replacement);
                 ])
             d.fixits) );
    ]

let file_report_to_json ~file ds =
  Json.Obj
    [
      ("file", Json.String file);
      ("errors", Json.Int (count Error ds));
      ("warnings", Json.Int (count Warning ds));
      ("diagnostics", Json.List (List.map to_json (sort ds)));
    ]

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 rendering (one run, one result per diagnostic) *)

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let sarif_region (s : Span.t) =
  Json.Obj
    [
      ("startLine", Json.Int s.start.line);
      ("startColumn", Json.Int s.start.col);
      ("endLine", Json.Int s.stop.line);
      ("endColumn", Json.Int s.stop.col);
    ]

(* SARIF wants [uri] to be a URI reference: keep RFC 3986 unreserved
   bytes and the path separator, percent-encode every other byte, so a
   UTF-8 file name decodes back to itself in any SARIF consumer. *)
let sarif_uri file =
  let b = Buffer.create (String.length file) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '.' | '_' | '~' | '/' ->
        Buffer.add_char b c
      | c -> Printf.bprintf b "%%%02X" (Char.code c))
    file;
  Json.String (Buffer.contents b)

let sarif_location ~file (s : Span.t) =
  Json.Obj
    [
      ( "physicalLocation",
        Json.Obj
          ([ ("artifactLocation", Json.Obj [ ("uri", sarif_uri file) ]) ]
          @ if Span.is_dummy s then [] else [ ("region", sarif_region s) ]) );
    ]

let sarif_result ~file d =
  Json.Obj
    ([
       ("ruleId", Json.String d.code);
       ("level", Json.String (sarif_level d.severity));
       ("message", Json.Obj [ ("text", Json.String d.message) ]);
       ("locations", Json.List [ sarif_location ~file d.span ]);
     ]
    @
    if d.notes = [] then []
    else
      [
        ( "relatedLocations",
          Json.List
            (List.map
               (fun n ->
                 Json.Obj
                   [
                     ( "physicalLocation",
                       Json.Obj
                         ([
                            ( "artifactLocation",
                              Json.Obj [ ("uri", sarif_uri file) ] );
                          ]
                         @
                         if Span.is_dummy n.note_span then []
                         else [ ("region", sarif_region n.note_span) ]) );
                     ( "message",
                       Json.Obj [ ("text", Json.String n.note_message) ] );
                   ])
               d.notes) );
      ])

let sarif_report reports =
  let rules =
    List.map
      (fun (id, description) ->
        Json.Obj
          [
            ("id", Json.String id);
            ( "shortDescription",
              Json.Obj [ ("text", Json.String description) ] );
          ])
      codes
  in
  let results =
    List.concat_map
      (fun (file, ds) -> List.map (sarif_result ~file) (sort ds))
      reports
  in
  Json.Obj
    [
      ( "$schema",
        Json.String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "calm-lint");
                            ("version", Json.String "1.0.0");
                            ( "informationUri",
                              Json.String
                                "https://github.com/calm/calm#calm-lint" );
                            ("rules", Json.List rules);
                          ] );
                    ] );
                ("results", Json.List results);
              ];
          ] );
    ]
