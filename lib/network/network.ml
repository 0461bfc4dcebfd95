(** Relational transducer networks (Section 4 of the paper): distribution
    policies, transducer schemas and transducers, the asynchronous
    transition semantics, fair schedulers, query computation, and the
    operational coordination-freeness test. *)

module Policy = Policy
module Transducer_schema = Transducer_schema
module Transducer = Transducer
module Config = Config
module Causal = Causal
module Trace = Trace
module Fault = Fault
module Run = Run
module Provenance = Provenance
module Netquery = Netquery
module Coordination = Coordination
module Explore = Explore
