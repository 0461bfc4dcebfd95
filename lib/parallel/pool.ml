(* A hand-rolled fork-join Domain pool.

   The pool owns [jobs - 1] worker domains parked on a condition
   variable; the owning domain participates in every parallel region, so
   a [jobs = 1] pool spawns nothing and [search] takes its sequential
   path. Parallel regions are generation-numbered: [run] publishes a
   body, bumps the generation, and every worker executes the body
   exactly once per generation before parking again. Only [Domain],
   [Mutex], and [Condition] are used.

   [search] is the one fan-out path: it returns the first hit in
   enumeration order even though later elements may be probed
   concurrently, and [map] is [search] over the indexed elements with a
   probe that never hits, so it keeps input order and re-raises the
   exception of the first raising element. Determinism rests on one
   invariant: indices are issued contiguously and an issued element is
   always processed to completion, so when the winning event at index i
   is recorded, every index below i has been issued and will report
   before the joins complete.

   Telemetry: each task runs with its own Observe.Metrics collector, and
   [search] merges those buffers back into the caller's ambient
   collector in input order, only the buffers of indices up to and
   including the winning event. A parallel run therefore commits exactly
   the metric recordings the sequential scan would have made, which is
   what lets stable metrics be byte-identical across [jobs]. The pool
   records no metric of its own: each member's share of a region is one
   [pool.region] span on its sink track. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable body : (unit -> unit) option;
  mutable active : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.jobs

(* This domain's worker number within the current pool: 0 for the owner,
   1..jobs-1 for spawned workers. *)
let worker_id : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let region body =
  Observe.Sink.span ~cat:"pool"
    ~args:[ ("worker", Observe.Json.Int (Domain.DLS.get worker_id)) ]
    "pool.region" body

let worker t i =
  Domain.DLS.set worker_id i;
  Observe.Sink.set_track (Printf.sprintf "worker-%d" i);
  let rec loop gen =
    Mutex.lock t.mutex;
    while (not t.stopped) && t.generation = gen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let body = Option.get t.body in
      Mutex.unlock t.mutex;
      (try region body with _ -> ());
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      loop gen
    end
  in
  loop 0

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains

let with_pool ?jobs f =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      body = None;
      active = 0;
      stopped = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body] on every member of the pool (workers + the calling domain)
   and return once all have finished. [body] must be exception-safe: a
   worker swallows anything it raises, so [search] funnels failures
   through shared state instead. *)
let run t body =
  Mutex.lock t.mutex;
  t.body <- Some body;
  t.generation <- t.generation + 1;
  t.active <- List.length t.domains;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  (* Wait for the workers even on an owner-side failure, otherwise a
     second region could start while they still run the old body. *)
  Fun.protect (fun () -> region body) ~finally:(fun () ->
      Mutex.lock t.mutex;
      while t.active > 0 do Condition.wait t.work_done t.mutex done;
      Mutex.unlock t.mutex)

type 'b outcome =
  | Found of 'b
  | Exhausted of int

(* Counterexample search with cancellation. Probes elements of [seq]
   concurrently but returns exactly what a sequential left-to-right scan
   would: [Found b] for the first element on which [f] yields a hit
   (raising whatever [f] or the sequence raised if an exception comes
   first in enumeration order), or [Exhausted n] after all [n] elements
   miss. Once a worker records an event at index i, no index above i is
   issued any more, so all other workers drain and stop. *)
let search t f seq =
  if t.domains = [] then
    let rec go count s =
      match s () with
      | Seq.Nil -> Exhausted count
      | Seq.Cons (x, rest) -> (
        match f x with Some b -> Found b | None -> go (count + 1) rest)
    in
    go 0 seq
  else begin
    let m = Mutex.create () in
    let cur = ref seq in
    let next = ref 0 in
    (* Minimal-index event: a hit or an exception, whichever enumerates
       first. *)
    let best = ref None in
    (* Per-index task metric buffers; only those at indices <= the final
       event index are committed, in index order, so the parallel search
       records exactly what the sequential left-to-right scan would. *)
    let bufs : (int, Observe.Metrics.t) Hashtbl.t = Hashtbl.create 64 in
    let use_series = Observe.Series.is_enabled () in
    let sbufs : (int, Observe.Series.t) Hashtbl.t = Hashtbl.create 64 in
    let record i ev =
      match !best with
      | Some (j, _) when j <= i -> ()
      | _ -> best := Some (i, ev)
    in
    let take () =
      Mutex.lock m;
      let r =
        let cutoff =
          match !best with Some (j, _) -> j | None -> max_int
        in
        if !next >= cutoff then None
        else
          match !cur () with
          | Seq.Nil -> None
          | Seq.Cons (x, rest) ->
            cur := rest;
            let i = !next in
            incr next;
            let buf = Observe.Metrics.create () in
            Hashtbl.replace bufs i buf;
            Some (i, x, buf)
          | exception e ->
            record !next (Error e);
            cur := Seq.empty;
            None
      in
      Mutex.unlock m;
      r
    in
    let record_locked i ev =
      Mutex.lock m;
      record i ev;
      Mutex.unlock m
    in
    let caller = Observe.Metrics.current () in
    let caller_series = Observe.Series.current () in
    run t (fun () ->
        let rec go () =
          match take () with
          | None -> ()
          | Some (i, x, buf) ->
            let task () =
              if use_series then begin
                let sbuf = Observe.Series.task_buffer () in
                Mutex.lock m;
                Hashtbl.replace sbufs i sbuf;
                Mutex.unlock m;
                Observe.Series.with_current sbuf (fun () -> f x)
              end
              else f x
            in
            (match Observe.Metrics.with_current buf task with
            | Some b -> record_locked i (Ok b)
            | None -> ()
            | exception e -> record_locked i (Error e));
            go ()
        in
        go ());
    let commit_upto last =
      for i = 0 to last do
        (match Hashtbl.find_opt bufs i with
        | Some buf -> Observe.Metrics.merge_into caller buf
        | None -> ());
        match Hashtbl.find_opt sbufs i with
        | Some sbuf -> Observe.Series.merge_into caller_series sbuf
        | None -> ()
      done
    in
    match !best with
    | Some (i, Ok b) ->
      commit_upto i;
      Found b
    | Some (i, Error e) ->
      commit_upto i;
      raise e
    | None ->
      commit_upto (!next - 1);
      Exhausted !next
  end

type never = |

(* [search] with a probe that stores each result at its index and never
   hits: the same issue order, the same first-exception rule and the
   same in-order buffer commits as [List.map f xs]. *)
let map t f xs =
  let xs = Array.of_list xs in
  let out = Array.make (Array.length xs) None in
  let store (i, x) : never option =
    out.(i) <- Some (f x);
    None
  in
  match search t store (Array.to_seqi xs) with
  | Found _ -> .
  | Exhausted _ -> Array.to_list (Array.map Option.get out)
