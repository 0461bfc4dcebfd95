(** The paper's primary contribution as a library: the refined CALM
    hierarchy (weaker monotonicity classes ↔ coordination-free transducer
    models ↔ Datalog fragments), a compiler from queries to
    coordination-free transducers, empirical coordination detection, and
    the table renderer behind Figure 2 and the bench. *)

module Hierarchy = Hierarchy
module Figure2 = Figure2
module Compile = Compile
module Empirical = Empirical
module Report = Report
