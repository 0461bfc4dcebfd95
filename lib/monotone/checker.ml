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

(* What one group probes: every admissible extension of its base with
   at most [max_ext] facts, enumerated inside the group's task
   ({!Enumerate.candidates}, then {!Enumerate.subsets_until}), or one
   given extension (the random checker's draws). [movable] is the part
   of the value pool the query is generic under: a base that is not the
   leader of its orbit under its permutations is counted, not probed.
   It is empty for user-supplied bases, which are all probed. *)
type extensions =
  | Admissible of {
      schema : Schema.t;
      fresh : Value.t list;
      max_ext : int;
      movable : Value.Set.t;
    }
  | Single of Query.delta

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
let probe_group kind q (ord, (base, exts)) =
  Observe.Profile.span_rooted [ "scan"; "base" ] @@ fun () ->
  let route = Query.route q in
  let found = ref None in
  (* [Q(base)] and its staged probe; [None] when [Q(base)] is empty. *)
  let staged () =
    let before =
      Observe.Profile.span_rooted [ "scan"; "base"; "qbase" ] (fun () ->
          Query.apply q base)
    in
    if Instance.is_empty before then None
    else
      let probe =
        Observe.Profile.span_rooted [ "scan"; "base"; "stage" ] (fun () ->
            Classes.stage ~before kind q ~base)
      in
      Some
        (fun d ->
          match probe d with
          | Some v ->
            found := Some v;
            true
          | None -> false)
  in
  let scanned, tally =
    match exts with
    | Single d -> (
      match staged () with
      | None -> (1, Empty_before)
      | Some test ->
        ignore (test d);
        (1, Probed))
    | Admissible { schema; fresh; max_ext; movable } -> (
      let count () =
        Enumerate.subsets_count
          (Enumerate.candidate_count kind ~base ~schema ~fresh)
          max_ext
      in
      if not (Enumerate.is_leader ~movable base) then (count (), Orbit)
      else
        match staged () with
        | None -> (count (), Empty_before)
        | Some test ->
          let candidates = Enumerate.candidates kind ~base ~schema ~fresh in
          ( Enumerate.subsets_until candidates max_ext (fun facts ->
                test (Query.delta_of_facts facts)),
            Probed ))
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

(* Scan a per-base grouped (base, extensions) stream for a violation.
   Groups preserve pair enumeration order, so "first violation in group
   order, scanning within each group sequentially" is the first
   violation in pair order. The groups go through a pool of [jobs]
   members (default 1, which spawns nothing and scans in order); the
   search is cancelled as soon as any worker finds a violation, but the
   reported violation is always the first one in enumeration order, so
   certificates (and their shrunken forms) are reproducible
   independently of [jobs]. *)
let scan ?jobs kind q groups =
  (* Ordinal-tag the groups so the per-base series tick is the base's
     position in enumeration order, a schedule-independent coordinate. *)
  let groups = Seq.mapi (fun i g -> (i, g)) groups in
  let outcome =
    Observe.Profile.span_rooted [ "scan" ] @@ fun () ->
    (* Pair tallies live outside the pool's metric buffers: the total is
       only read on [Exhausted], when every group has completed, so the
       sum is independent of scheduling. *)
    let pairs = Atomic.make 0 in
    let probe group =
      let scanned, v = probe_group kind q group in
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

(* Each group is one base with the description of its extensions; the
   group's task builds them ({!Enumerate.candidates} guarantees
   admissibility per kind, so the probe skips re-checking) and decides
   whether its base leads its orbit under the permutations of the value
   pool that fix the query's constants. *)

let check_exhaustive ?(bounds = default_bounds) ?schema ?jobs kind q =
  let schema = Option.value schema ~default:q.Query.input in
  let dom = Enumerate.value_pool bounds.dom_size in
  let fresh = Enumerate.fresh_pool bounds.fresh in
  let movable =
    Value.Set.diff (Value.Set.of_list dom) (Value.Set.of_list q.Query.constants)
  in
  let exts = Admissible { schema; fresh; max_ext = bounds.max_ext; movable } in
  let groups =
    Enumerate.instances schema ~dom ~max_facts:bounds.max_base
    |> Seq.map (fun base -> (base, exts))
  in
  scan ?jobs kind q groups

let check_on_bases ?(fresh = default_bounds.fresh)
    ?(max_ext = default_bounds.max_ext) ?jobs kind q bases =
  let exts =
    Admissible
      {
        schema = q.Query.input;
        fresh = Enumerate.fresh_pool fresh;
        max_ext;
        movable = Value.Set.empty;
      }
  in
  scan ?jobs kind q (List.to_seq bases |> Seq.map (fun base -> (base, exts)))

let random_instance st schema ~dom ~max_facts =
  let dom = Array.of_list dom in
  let pick () = dom.(Random.State.int st (Array.length dom)) in
  let n = Random.State.int st (max_facts + 1) in
  let rels = Array.of_list (Schema.relations schema) in
  if Array.length rels = 0 then Instance.empty
  else
    List.init n (fun _ ->
        let name, ar = rels.(Random.State.int st (Array.length rels)) in
        Fact.make name (List.init ar (fun _ -> pick ())))
    |> Instance.of_list

(* A random admissible extension: for Distinct each fact gets at least one
   fresh value; for Disjoint, only fresh values. *)
let random_extension st kind schema ~base ~fresh ~max_size =
  let base_vals = Value.Set.elements (Instance.adom base) in
  let fresh = Array.of_list fresh in
  let pick_fresh () = fresh.(Random.State.int st (Array.length fresh)) in
  let pick_any () =
    let n_old = List.length base_vals in
    let k = Random.State.int st (n_old + Array.length fresh) in
    if k < n_old then List.nth base_vals k else pick_fresh ()
  in
  let n = 1 + Random.State.int st max_size in
  let rels = Array.of_list (Schema.relations schema) in
  if Array.length rels = 0 then Instance.empty
  else
    List.init n (fun _ ->
        let name, ar = rels.(Random.State.int st (Array.length rels)) in
        let args =
          match (kind : Classes.kind) with
          | Plain -> List.init ar (fun _ -> pick_any ())
          | Disjoint -> List.init ar (fun _ -> pick_fresh ())
          | Distinct ->
            let forced = Random.State.int st ar in
            List.init ar (fun i ->
                if i = forced then pick_fresh () else pick_any ())
        in
        Fact.make name args)
    |> Instance.of_list
    |> fun i -> Instance.diff i base

let check_random ?(seed = 17) ?(trials = 500) ?(bounds = default_bounds)
    ?schema ?jobs kind q =
  let schema = Option.value schema ~default:q.Query.input in
  let st = Random.State.make [| seed |] in
  let dom = Enumerate.value_pool bounds.dom_size in
  let fresh = Enumerate.fresh_pool bounds.fresh in
  (* Singleton groups: random bases repeat too rarely to cache across,
     and drawing from [st] must stay in the outer sequence, which the
     pool forces under its lock in enumeration order. The extension is
     materialized eagerly here for the same reason. *)
  let groups =
    Seq.init trials (fun _ ->
        let base = random_instance st schema ~dom ~max_facts:bounds.max_base in
        let extension =
          random_extension st kind schema ~base ~fresh
            ~max_size:bounds.max_ext
        in
        (base, extension))
    |> Seq.filter (fun (base, extension) ->
           (not (Instance.is_empty extension))
           && Classes.admissible kind ~base ~extension)
    |> Seq.map (fun (base, extension) ->
           (base, Single (Query.delta_of_instance extension)))
  in
  scan ?jobs kind q groups

let ladder ?fresh ?bases ?(bounds = default_bounds) ?jobs kind ~max_i q =
  List.init max_i (fun k ->
      let i = k + 1 in
      match bases with
      | Some bases -> check_on_bases ?fresh ~max_ext:i ?jobs kind q bases
      | None -> check_exhaustive ~bounds:{ bounds with max_ext = i } ?jobs kind q)
