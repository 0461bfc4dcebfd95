open Relational

(* Int-interned view of one binary relation of an instance.

   The monotonicity scan probes millions of tiny graphs (a handful of
   edges each); the zoo's reference evaluators answer each probe by
   materializing the query output as a [Fact.Set] over [Value.t], which
   is dominated by value comparisons and set allocation. The kernel
   instead interns the endpoints into [0..n-1] and runs the fixpoints on
   flat arrays, so the zoo queries can expose staged
   {!Relational.Query.t.witness} fast paths whose answers are provably
   the same facts, without the intermediate instances. The staged shape
   matches {!extend}: a scan interns the base once and re-interns only
   each extension's few facts, with base vertex numbers preserved. *)

type t = {
  n : int;
  values : Value.t array;  (* interning order: first occurrence *)
  adj : int list array;  (* successors *)
}

let empty = { n = 0; values = [||]; adj = [||] }

(* Intern endpoints by linear scan: the scanned graphs have at most a
   dozen vertices, where an array scan beats any hashing. *)
let vertex g v =
  let rec go i =
    if i = g.n then -1 else if Value.equal g.values.(i) v then i else go (i + 1)
  in
  go 0

let edges_of rel i =
  Instance.fold
    (fun f acc ->
      if Fact.rel f = rel && Fact.arity f = 2 then
        (Fact.arg f 0, Fact.arg f 1) :: acc
      else acc)
    i []

let add_edges g edges =
  match edges with
  | [] -> g
  | _ ->
    let values = Array.make (g.n + (2 * List.length edges)) (Value.int 0) in
    Array.blit g.values 0 values 0 g.n;
    let n = ref g.n in
    let intern v =
      let rec go i =
        if i = !n then begin
          values.(i) <- v;
          incr n;
          i
        end
        else if Value.equal values.(i) v then i
        else go (i + 1)
      in
      go 0
    in
    let edges = List.rev_map (fun (a, b) -> (intern a, intern b)) edges in
    let n = !n in
    let adj = Array.make n [] in
    Array.blit g.adj 0 adj 0 g.n;
    List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
    { n; values = Array.sub values 0 n; adj }

(* Stage spans nest under whatever scan span is ambient at call time
   (e.g. scan/base/stage/kernel.intern), so [calm classify --profile] can
   say which kernel stage of a witness dominates. No-ops unless
   profiling. *)
let of_rel rel i =
  Observe.Profile.span "kernel.intern" @@ fun () ->
  add_edges empty (edges_of rel i)

let extend g rel i =
  Observe.Profile.span "kernel.intern" @@ fun () ->
  add_edges g (edges_of rel i)

let extend_facts g rel facts =
  Observe.Profile.span "kernel.intern" @@ fun () ->
  add_edges g
    (List.filter_map
       (fun f ->
         if Fact.rel f = rel && Fact.arity f = 2 then
           Some (Fact.arg f 0, Fact.arg f 1)
         else None)
       facts)

(* Reachability probe with per-source memoized DFS: the scan's probes ask
   about few distinct sources (the expected facts' first components), so
   computing only their rows beats the full closure. *)
let reacher g =
  let memo = Array.make (max g.n 1) [||] in
  fun a b ->
    let row =
      let cached = memo.(a) in
      if Array.length cached > 0 then cached
      else
        Observe.Profile.span "kernel.dfs" @@ fun () ->
        let row = Array.make g.n false in
        let rec dfs v =
          List.iter
            (fun y ->
              if not row.(y) then begin
                row.(y) <- true;
                dfs y
              end)
            g.adj.(v)
        in
        dfs a;
        memo.(a) <- row;
        row
    in
    row.(b)

(* Won positions of the move graph: the alternating fixpoint of
   [step S = { x | some move x -> y with y not in S }], iterated from
   (empty, step empty) until both the under- and over-estimate are
   stationary — the same iteration as {!Zoo.winmove}, on bit arrays. *)
let wins g =
  Observe.Profile.span "kernel.wins" @@ fun () ->
  let step s =
    Array.init g.n (fun x -> List.exists (fun y -> not s.(y)) g.adj.(x))
  in
  let rec fix under over =
    let under' = step over in
    let over' = step under' in
    if under = under' && over = over' then under else fix under' over'
  in
  let bottom = Array.make g.n false in
  fix bottom (step bottom)
