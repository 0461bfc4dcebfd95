(** Datalog¬ engines: abstract syntax, parsing, stratification, naive and
    semi-naive fixpoints, well-founded semantics, (semi-)connectivity
    analysis, fragment classification, and ILOG¬ value invention. *)

module Ast = Ast
module Parser = Parser
module Stratify = Stratify
module Joindb = Joindb
module Eval = Eval
module Refeval = Refeval
module Wellfounded = Wellfounded
module Connectivity = Connectivity
module Fragment = Fragment
module Points_of_order = Points_of_order
module Depgraph = Depgraph
module Ivm = Ivm
module Ilog = Ilog
module Adom = Adom
module Program = Program
