(** Static analysis for Datalog¬ programs: span-accurate lint
    diagnostics and independently-checkable fragment certificates.

    The subsystem splits into a {e classifier} side (the lint rules and
    {!certify}, which search for evidence) and a {e checker} side
    ({!check_certificate}, which validates evidence by local inspection
    without re-running any search) — mirroring the certifying-algorithm
    discipline: trust the check, not the search. *)

module Diagnostic = Diagnostic
module Certificate = Certificate
module Lint = Lint
module Driver = Driver

let certify = Certificate.certify

let check_certificate = Certificate.check
