(** Parser for the conventional Datalog¬ rule syntax.

    Grammar (comments start with [%] and run to end of line):
    {[
      program  ::= rule*
      rule     ::= atom ":-" literal ("," literal)* "."
      literal  ::= "not" atom | atom | term ("!=" | "<>") term
      atom     ::= ident "(" slot ("," slot)* ")"
      slot     ::= "*" | term            (* "*" only in heads: invention *)
      term     ::= ident                 (* a variable *)
                 | integer               (* Const (Int _) *)
                 | '"' chars '"'         (* Const (Sym _) *)
    ]}

    Any identifier directly applied to parentheses is a predicate name; bare
    identifiers in term position are variables. String and integer literals
    are constants. *)

exception Syntax_error of { line : int; col : int; message : string }
(** Lexical and grammatical errors carry the 1-based line and column of
    the offending token, and the message names the token found. An
    arity conflict points at the atom that disagrees with the
    predicate's first use. *)

val parse_program : string -> Ast.program
(** @raise Syntax_error on lexical or grammatical errors, on rules that
    fail {!Ast.check_rule}, and on arity conflicts. *)

val parse_program_located : string -> Ast.located_program
(** Like {!parse_program} but keeps source spans and skips the
    well-formedness checks ({!Ast.check_rule}, arity consistency) so
    that ill-formed programs can still be linted with precise
    locations. Only lexical/grammatical errors raise. *)

val parse_rule : string -> Ast.rule
(** Parses exactly one rule. *)
