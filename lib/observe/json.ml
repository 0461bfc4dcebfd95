type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

(* Strings are treated as byte sequences, not UTF-8: every byte outside
   printable ASCII is escaped as [\u00XX], so the output is pure ASCII
   and always well-formed JSON even for strings holding raw control or
   high bytes. The parser decodes [\uXXXX] below 0x100 back to the
   single byte, making print/parse the identity on arbitrary bytes. *)
let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    "null"
  else
    let s = Printf.sprintf "%.17g" f in
    (* Keep floats recognizable as floats on re-parse. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then s
    else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let rec write_pretty b indent = function
  | List (_ :: _ as l) ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad';
        write_pretty b (indent + 2) x)
      l;
    Buffer.add_char b '\n';
    Buffer.add_string b pad;
    Buffer.add_char b ']'
  | Obj (_ :: _ as fields) ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad';
        escape_string b k;
        Buffer.add_string b ": ";
        write_pretty b (indent + 2) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b pad;
    Buffer.add_char b '}'
  | v -> write b v

let to_string_pretty v =
  let b = Buffer.create 256 in
  write_pretty b 0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Fail of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Fail (Printf.sprintf "at offset %d: %s" c.pos msg))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    value)
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char b '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char b '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then fail c "bad \\u escape";
        let hex = String.sub c.src c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail c "bad \\u escape"
        in
        c.pos <- c.pos + 4;
        (* Codes below 0x100 decode to the single byte (the printer's
           byte-oriented [\u00XX] escapes round-trip); higher BMP codes
           decode as UTF-8 (surrogate pairs are not recombined — the
           exporters never emit them). *)
        if code < 0x100 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  let is_float =
    String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then (advance c; List [])
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected , or ] in array"
      in
      List (items [])
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then (advance c; Obj [])
    else
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> fail c "expected , or } in object"
      in
      Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Fail msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
  | _ -> false
