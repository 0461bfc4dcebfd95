open Relational

type outcome =
  | No_violation of { pairs : int }
  | Violated of Classes.violation

let is_violation = function Violated _ -> true | No_violation _ -> false

type bounds = {
  dom_size : int;
  fresh : int;
  max_base : int;
  max_ext : int;
}

let default_bounds = { dom_size = 3; fresh = 2; max_base = 4; max_ext = 2 }

(* Telemetry. [monotone.probes], [monotone.cache_hits] and
   [monotone.orbit_bases] (the bases counted because they do not lead
   their orbit) are incremented inside the per-base group probe, so on
   the parallel path they are committed through the pool's per-task
   buffers: only groups at indices up to the winning counterexample
   count (the winning group itself stops at its first in-group
   violation), making the values identical to the sequential scan's.
   The remaining stable rows are derived from the (deterministic)
   outcome; wall-clock goes to the [scan] profile span. *)
let m_probes = Observe.Metrics.counter "monotone.probes"
let m_pairs = Observe.Metrics.counter "monotone.pairs_scanned"
let m_cache_hits = Observe.Metrics.counter "monotone.cache_hits"
let m_ivm_hits = Observe.Metrics.counter "monotone.ivm_hits"
let m_orbit_bases = Observe.Metrics.counter "monotone.orbit_bases"
let m_violations = Observe.Metrics.counter "monotone.violations"
let m_cert_size = Observe.Metrics.histogram "monotone.counterexample_size"

(* What every group of a scan probes: each admissible extension of its
   base with at most [max_ext] facts, enumerated inside the group's task
   ({!Enumerate.candidates}, then {!Enumerate.subsets_until}). [movable]
   is the part of the value pool the query is generic under: a base that
   is not the leader of its orbit under its permutations is counted, not
   probed. It is empty for user-supplied bases, which are all probed. *)
type extensions = {
  schema : Schema.t;
  fresh : Value.t list;
  max_ext : int;
  movable : Value.Set.t;
}

(* How a group's pairs were tallied: walked through the staged probe, or
   counted without one because [Q(base)] is empty or the base does not
   lead its orbit. *)
type tally = Probed | Empty_before | Orbit

(* Probe one base's admissible extensions in pair order, stopping at the
   first violation. This is where the cross-probe cache lives: [Q(base)]
   is evaluated once per base rather than once per pair; every probe
   after the first within a group is a cache hit. A walked group's
   candidates are built here, so under [jobs > 1] on the worker that
   runs the group, and each subset the kernel hands over goes straight
   to the staged probe as a {!Relational.Query.delta}. Two kinds of
   group are counted as [Σ C(n, s)] without being walked: a base that
   is not its orbit's leader ({!Enumerate.is_leader}: its first
   violation, if any, would come after its leader's, so it cannot hold
   the scan's first one) is not even evaluated, and one whose [Q(base)]
   is empty cannot lose a fact ([diff before after ⊆ before]). Either
   way [monotone.probes]/[pairs_scanned] count every admissible pair. *)
(* Attribution paths are rooted ("scan/base/..."): probe_group runs on
   pool worker domains under [jobs > 1], whose ambient span stack is
   empty, so absolute paths are what makes the parallel profile
   aggregate with the sequential one. The base span's self time is the
   probe walk; its annotations count the group's probes by route, cache
   hit, empty [Q(base)] or orbit, once per group. *)
let probe_group kind q { schema; fresh; max_ext; movable } (ord, base) =
  Observe.Profile.span_rooted [ "scan"; "base" ] @@ fun () ->
  let route = Query.route q in
  let found = ref None in
  let count () =
    Enumerate.subsets_count
      (Enumerate.candidate_count kind ~base ~schema ~fresh)
      max_ext
  in
  let scanned, tally =
    if not (Enumerate.is_leader ~movable base) then (count (), Orbit)
    else
      let before =
        Observe.Profile.span_rooted [ "scan"; "base"; "qbase" ] (fun () ->
            Query.apply q base)
      in
      if Instance.is_empty before then (count (), Empty_before)
      else
        let probe =
          Observe.Profile.span_rooted [ "scan"; "base"; "stage" ] (fun () ->
              Classes.stage ~before kind q ~base)
        in
        let candidates = Enumerate.candidates kind ~base ~schema ~fresh in
        ( Enumerate.subsets_until candidates max_ext (fun facts ->
              match probe (Query.delta_of_facts facts) with
              | Some v ->
                found := Some v;
                true
              | None -> false),
          Probed )
  in
  (* Committed once per group rather than once per probe — the hot loop
     pays no registry hits — with totals byte-identical to the per-probe
     accounting, including a winning group's partial tally. *)
  if tally = Orbit then Observe.Metrics.incr m_orbit_bases;
  if scanned > 0 then begin
    Observe.Metrics.incr ~by:scanned m_probes;
    if scanned > 1 then Observe.Metrics.incr ~by:(scanned - 1) m_cache_hits;
    match tally with
    | Orbit -> Observe.Profile.annot ~by:scanned "orbit"
    | Empty_before -> Observe.Profile.annot ~by:scanned "empty_before"
    | Probed ->
      if route = Query.Ivm then Observe.Metrics.incr ~by:scanned m_ivm_hits;
      Observe.Profile.annot ~by:scanned
        (match route with
        | Query.Witness -> "witness"
        | Query.Ivm -> "ivm"
        | Query.Eval -> "eval");
      if scanned > 1 then Observe.Profile.annot ~by:(scanned - 1) "cache_hit"
  end;
  (* Per-base trajectory, tick = the base's ordinal in enumeration
     order: on the parallel path these land in the pool's per-task
     buffers and only groups up to the winning index commit, so the
     series match the sequential scan's byte for byte. Each scan's ticks
     start at 0, so the class label keeps the scans of one placement
     chain apart; it is passed here rather than scoped around the scan
     because pool workers do not see the caller's label context. *)
  if Observe.Series.is_enabled () then begin
    let labels = [ ("class", Classes.kind_to_string kind) ] in
    Observe.Series.sample ~labels "monotone.base_probes" ~tick:ord
      (float_of_int scanned);
    if Option.is_some !found then
      Observe.Series.sample ~labels "monotone.base_violation" ~tick:ord 1.
  end;
  (scanned, !found)

(* Scan a stream of bases for a violation, one group per base. Groups
   preserve pair enumeration order, so "first violation in group
   order, scanning within each group sequentially" is the first
   violation in pair order. The groups go through a pool of [jobs]
   members (default 1, which spawns nothing and scans in order); the
   search is cancelled as soon as any worker finds a violation, but the
   reported violation is always the first one in enumeration order, so
   certificates (and their shrunken forms) are reproducible
   independently of [jobs]. *)
let scan ?jobs kind q exts bases =
  (* Ordinal-tag the groups so the per-base series tick is the base's
     position in enumeration order, a schedule-independent coordinate. *)
  let groups = Seq.mapi (fun i base -> (i, base)) bases in
  let outcome =
    Observe.Profile.span_rooted [ "scan" ] @@ fun () ->
    (* Pair tallies live outside the pool's metric buffers: the total is
       only read on [Exhausted], when every group has completed, so the
       sum is independent of scheduling. *)
    let pairs = Atomic.make 0 in
    let probe group =
      let scanned, v = probe_group kind q exts group in
      if Option.is_none v then ignore (Atomic.fetch_and_add pairs scanned);
      v
    in
    Parallel.Pool.with_pool ~jobs:(Option.value jobs ~default:1) (fun pool ->
        match Parallel.Pool.search pool probe groups with
        | Parallel.Pool.Found v -> Violated v
        | Parallel.Pool.Exhausted _ -> No_violation { pairs = Atomic.get pairs })
  in
  (match outcome with
  | No_violation { pairs } -> Observe.Metrics.incr ~by:pairs m_pairs
  | Violated v ->
    Observe.Metrics.incr m_violations;
    Observe.Metrics.observe m_cert_size
      (float_of_int
         (Instance.cardinal v.Classes.base
         + Instance.cardinal v.Classes.extension)));
  outcome

(* Each group's task builds its base's extensions ({!Enumerate.candidates}
   guarantees admissibility per kind, so the probe skips re-checking)
   and decides whether its base leads its orbit under the permutations
   of the value pool that fix the query's constants. *)
let check_exhaustive ?(bounds = default_bounds) ?jobs kind q =
  let schema = q.Query.input in
  let dom = Enumerate.value_pool bounds.dom_size in
  let fresh = Enumerate.fresh_pool bounds.fresh in
  let movable =
    Value.Set.diff (Value.Set.of_list dom) (Value.Set.of_list q.Query.constants)
  in
  scan ?jobs kind q
    { schema; fresh; max_ext = bounds.max_ext; movable }
    (Enumerate.instances schema ~dom ~max_facts:bounds.max_base)

let check_on_bases ?(fresh = default_bounds.fresh)
    ?(max_ext = default_bounds.max_ext) ?jobs kind q bases =
  scan ?jobs kind q
    {
      schema = q.Query.input;
      fresh = Enumerate.fresh_pool fresh;
      max_ext;
      movable = Value.Set.empty;
    }
    (List.to_seq bases)

let ladder ?fresh ?bases ?(bounds = default_bounds) ?jobs kind ~max_i q =
  List.init max_i (fun k ->
      let i = k + 1 in
      match bases with
      | Some bases -> check_on_bases ?fresh ~max_ext:i ?jobs kind q bases
      | None -> check_exhaustive ~bounds:{ bounds with max_ext = i } ?jobs kind q)
