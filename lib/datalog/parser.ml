open Relational
module Span = Ast.Span

exception Syntax_error of { line : int; col : int; message : string }

type token =
  | Tident of string
  | Tint of int
  | Tstring of string
  | Tstar
  | Tlparen
  | Trparen
  | Tcomma
  | Tturnstile
  | Tdot
  | Tneq
  | Tnot

let describe_token = function
  | Tident s -> Printf.sprintf "identifier '%s'" s
  | Tint k -> Printf.sprintf "integer %d" k
  | Tstring s -> Printf.sprintf "string %S" s
  | Tstar -> "'*'"
  | Tlparen -> "'('"
  | Trparen -> "')'"
  | Tcomma -> "','"
  | Tturnstile -> "':-'"
  | Tdot -> "'.'"
  | Tneq -> "'!='"
  | Tnot -> "'not'"

let fail (span : Span.t) message =
  raise
    (Syntax_error { line = span.start.line; col = span.start.col; message })

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* Tokens never span newlines (strings may not contain them), so the
   current line/beginning-of-line indices suffice to position both span
   ends. *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let i = ref 0 in
  let pos_at idx : Span.pos = { line = !line; col = idx - !bol + 1 } in
  let fail_at idx message = fail (Span.make ~start:(pos_at idx) ~stop:(pos_at idx)) message in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    let push t =
      tokens := (t, Span.make ~start:(pos_at start) ~stop:(pos_at !i)) :: !tokens
    in
    if c = '\n' then begin
      incr i;
      incr line;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '%' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '(' then (incr i; push Tlparen)
    else if c = ')' then (incr i; push Trparen)
    else if c = ',' then (incr i; push Tcomma)
    else if c = '.' then (incr i; push Tdot)
    else if c = '*' then (incr i; push Tstar)
    else if c = ':' && !i + 1 < n && src.[!i + 1] = '-' then begin
      i := !i + 2;
      push Tturnstile
    end
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then begin
      i := !i + 2;
      push Tneq
    end
    else if c = '<' && !i + 1 < n && src.[!i + 1] = '>' then begin
      i := !i + 2;
      push Tneq
    end
    else if c = '"' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 8 in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\n' then fail_at start "unterminated string literal";
        Buffer.add_char buf src.[!j];
        incr j
      done;
      if !j >= n then fail_at start "unterminated string literal";
      i := !j + 1;
      push (Tstring (Buffer.contents buf))
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let j = ref !i in
      if src.[!j] = '-' then incr j;
      let digits = !j in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      if !j = digits then fail_at start "expected digits after '-'";
      let text = String.sub src !i (!j - !i) in
      i := !j;
      push (Tint (int_of_string text))
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let text = String.sub src !i (!j - !i) in
      i := !j;
      if text = "not" then push Tnot else push (Tident text)
    end
    else fail_at start (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* Recursive-descent over the token list. [last] remembers the most
   recently consumed token's span so end-of-input errors still point
   somewhere useful. *)
type state = {
  mutable toks : (token * Span.t) list;
  mutable last : Span.t;
}

let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t
let span_of st = match st.toks with [] -> st.last | (_, sp) :: _ -> sp

let describe_peek st =
  match peek st with Some t -> describe_token t | None -> "end of input"

let next st =
  match st.toks with
  | [] -> fail st.last "unexpected end of input"
  | (t, sp) :: rest ->
    st.toks <- rest;
    st.last <- sp;
    (t, sp)

let expect st want describe =
  let t, sp = next st in
  if t <> want then
    fail sp
      (Printf.sprintf "expected %s but found %s" describe (describe_token t));
  sp

let parse_term st : Ast.term Ast.located =
  match next st with
  | Tident v, sp -> { value = Ast.Var v; span = sp }
  | Tint k, sp -> { value = Ast.Const (Value.Int k); span = sp }
  | Tstring s, sp -> { value = Ast.Const (Value.Sym s); span = sp }
  | t, sp ->
    fail sp
      ("expected a term (variable, integer, or string) but found "
      ^ describe_token t)

(* '*' is accepted in the first argument position of any atom; the
   restriction to heads is a well-formedness condition (Ast.check_rule),
   reported by the checked parse and by the lint engine with a span. *)
let parse_atom st : Ast.atom Ast.located =
  let name, name_span =
    match next st with
    | Tident name, sp -> (name, sp)
    | t, sp -> fail sp ("expected a predicate name but found " ^ describe_token t)
  in
  ignore (expect st Tlparen "'(' after predicate name");
  let invents = ref false in
  let terms = ref [] in
  let parse_slot ~first =
    match peek st with
    | Some Tstar ->
      let _, sp = next st in
      if not first then
        fail sp "'*' (invention) is only allowed in the first argument position";
      invents := true
    | _ -> terms := (parse_term st).value :: !terms
  in
  parse_slot ~first:true;
  let rec loop () =
    match peek st with
    | Some Tcomma ->
      ignore (next st);
      parse_slot ~first:false;
      loop ()
    | Some Trparen -> snd (next st)
    | _ ->
      fail (span_of st)
        ("expected ',' or ')' in atom but found " ^ describe_peek st)
  in
  let rparen_span = loop () in
  if !terms = [] && not !invents then
    fail name_span ("predicate " ^ name ^ " applied to no arguments");
  let terms = List.rev !terms in
  let atom =
    if !invents then Ast.invention_atom name terms else Ast.atom name terms
  in
  { value = atom; span = Span.union name_span rparen_span }

let parse_literal st : Ast.located_literal =
  let ineq () =
    let a = parse_term st in
    ignore (expect st Tneq "'!=' in inequality");
    let b = parse_term st in
    Ast.Lineq { value = (a.value, b.value); span = Span.union a.span b.span }
  in
  match peek st with
  | Some Tnot ->
    let _, not_span = next st in
    let a = parse_atom st in
    Ast.Lneg { a with span = Span.union not_span a.span }
  | Some (Tident _) -> begin
    (* Could be an atom (ident followed by '(') or a variable in an
       inequality. Look ahead one token. *)
    match st.toks with
    | (Tident _, _) :: (Tlparen, _) :: _ -> Ast.Lpos (parse_atom st)
    | _ -> ineq ()
  end
  | Some (Tint _ | Tstring _) -> ineq ()
  | _ -> fail (span_of st) ("expected a body literal but found " ^ describe_peek st)

let parse_one_rule st : Ast.located_rule =
  let head = parse_atom st in
  ignore (expect st Tturnstile "':-' after rule head");
  let body = ref [] in
  let add () = body := parse_literal st :: !body in
  add ();
  let rec loop () =
    match peek st with
    | Some Tcomma ->
      ignore (next st);
      add ();
      loop ()
    | Some Tdot -> snd (next st)
    | _ ->
      fail (span_of st)
        ("expected ',' or '.' after a body literal but found " ^ describe_peek st)
  in
  let dot_span = loop () in
  { lhead = head; lbody = List.rev !body; lspan = Span.union head.span dot_span }

let parse_program_located src =
  let st = { toks = tokenize src; last = Span.dummy } in
  let rules = ref [] in
  while peek st <> None do
    rules := parse_one_rule st :: !rules
  done;
  List.rev !rules

let parse_program src =
  let lp = parse_program_located src in
  let p =
    List.map
      (fun (lr : Ast.located_rule) ->
        let r = Ast.rule_of_located lr in
        match Ast.check_rule r with
        | Ok () -> r
        | Error msg -> fail lr.lspan msg)
      lp
  in
  (match Ast.arity_conflicts lp with
  | [] -> ()
  | (span, message, _) :: _ -> fail span message);
  p

let parse_rule src =
  match parse_program src with
  | [ r ] -> r
  | l ->
    raise
      (Syntax_error
         {
           line = 1;
           col = 1;
           message =
             Printf.sprintf "expected exactly one rule, got %d" (List.length l);
         })
