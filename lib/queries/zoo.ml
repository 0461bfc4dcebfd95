open Relational

let graph_schema = Graph_gen.schema

module Pair_set = Set.Make (struct
  type t = Value.t * Value.t

  let compare (a, b) (c, d) =
    let x = Value.compare a c in
    if x <> 0 then x else Value.compare b d
end)

(* ------------------------------------------------------------------ *)
(* Undirected helpers *)

let undirected_neighbours i =
  Instance.fold
    (fun f acc ->
      if Fact.rel f <> "E" || Fact.arity f <> 2 then acc
      else
        let a = Fact.arg f 0 and b = Fact.arg f 1 in
        if Value.equal a b then acc
        else
          let link x y m =
            Value.Map.update x
              (function
                | None -> Some (Value.Set.singleton y)
                | Some s -> Some (Value.Set.add y s))
              m
          in
          link a b (link b a acc))
    i Value.Map.empty

let has_clique i k =
  if k <= 1 then not (Instance.is_empty i)
  else
    let adj = undirected_neighbours i in
    let vertices = List.map fst (Value.Map.bindings adj) in
    let adjacent a b =
      match Value.Map.find_opt a adj with
      | Some s -> Value.Set.mem b s
      | None -> false
    in
    (* Extend a clique only with vertices after the last chosen one
       (vertices are sorted), avoiding permutation blowup. *)
    let rec extend clique rest need =
      if need = 0 then true
      else
        match rest with
        | [] -> false
        | v :: rest' ->
          (List.for_all (adjacent v) clique
          && extend (v :: clique) rest' (need - 1))
          || extend clique rest' need
    in
    extend [] vertices k

let has_star i k =
  let adj = undirected_neighbours i in
  Value.Map.exists (fun _ s -> Value.Set.cardinal s >= k) adj

let triangles i =
  let out = ref Instance.empty in
  let edges = Instance.to_list (Instance.restrict_rels i [ "E" ]) in
  let mem a b = Instance.mem (Fact.make "E" [ a; b ]) i in
  List.iter
    (fun f ->
      let x = Fact.arg f 0 and y = Fact.arg f 1 in
      if not (Value.equal x y) then
        List.iter
          (fun g ->
            let y' = Fact.arg g 0 and z = Fact.arg g 1 in
            if
              Value.equal y y'
              && (not (Value.equal y z))
              && (not (Value.equal x z))
              && mem z x
            then out := Instance.add (Fact.make "O" [ x; y; z ]) !out)
          edges)
    edges;
  !out

(* ------------------------------------------------------------------ *)
(* Queries *)

(* Reachable pairs of the edge relation, as a set. *)
let reachable_pairs i =
  let base =
    Instance.fold
      (fun f acc ->
        if Fact.rel f = "E" then Pair_set.add (Fact.arg f 0, Fact.arg f 1) acc
        else acc)
      i Pair_set.empty
  in
  let rec fix reach =
    let next =
      Pair_set.fold
        (fun (a, b) acc ->
          Pair_set.fold
            (fun (b', c) acc ->
              if Value.equal b b' then Pair_set.add (a, c) acc else acc)
            base acc)
        reach reach
    in
    if Pair_set.equal next reach then reach else fix next
  in
  fix base

let facts_of_pairs rel ps =
  Pair_set.fold
    (fun (a, b) acc -> Instance.add (Fact.make rel [ a; b ]) acc)
    ps Instance.empty

(* Staged witness fast paths (see {!Relational.Query.t.witness}): the
   least fact of [expected] outside [Q(base ∪ ext)], answered on the
   int-interned kernel without materializing [Q]. Staging interns the
   base and resolves [expected] against it once; each probe re-interns
   only the extension's few facts ({!Graph_kernel.extend} keeps base
   vertex numbers valid). [Instance.to_list] is in ascending fact order,
   so the first failing fact is the head of [diff expected Q(...)] — the
   certificate the evaluating route picks. [Graph_kernel.of_rel] keeps
   only the arity-2 facts of the relation, which is exactly the
   input-schema restriction the evaluating route applies. *)

let first_failing resolved member =
  List.find_map (fun entry -> if member entry then None else Some (fst entry))
    resolved

(* Resolve an expected fact's values to base vertex numbers at staging
   time; [-1] falls back to a lookup in the extended graph per probe
   (the value can enter through the extension). *)
let resolve2 gb expected =
  List.map
    (fun f ->
      let a = Fact.arg f 0 and b = Fact.arg f 1 in
      (f, ((a, Graph_kernel.vertex gb a), (b, Graph_kernel.vertex gb b))))
    (Instance.to_list expected)

let lookup g (v, v0) = if v0 >= 0 then v0 else Graph_kernel.vertex g v

(* Do the delta's [rel] edges touch the base graph's vertex set? When
   they do not, the extension is a separate component, so reachability
   and game values between base vertices are unchanged — the staged
   base answer serves the probe. *)
let delta_touches gb rel (d : Query.delta) =
  List.exists
    (fun f ->
      Fact.rel f = rel && Fact.arity f = 2
      && (Graph_kernel.vertex gb (Fact.arg f 0) >= 0
         || Graph_kernel.vertex gb (Fact.arg f 1) >= 0))
    d.Query.facts

(* Transitive closure is monotone fact-by-fact: an expected pair already
   reachable in the base stays reachable under any extension, so staging
   discharges those entries once and each probe examines only the
   (typically empty) remainder against the extended graph. When
   [expected = Q(base)] — the scan's cross-probe cache — every entry is
   discharged and the probe is delta-blind. *)
let tc_witness ~base ~expected =
  let gb = Graph_kernel.of_rel "E" base in
  let rb = Graph_kernel.reacher gb in
  let unknown =
    List.filter
      (fun (_, ((_, va), (_, vb))) -> not (va >= 0 && vb >= 0 && rb va vb))
      (resolve2 gb expected)
  in
  fun (d : Query.delta) ->
    match unknown with
    | [] -> None
    | _ ->
      let g = Graph_kernel.extend_facts gb "E" d.Query.facts in
      let reaches = Graph_kernel.reacher g in
      first_failing unknown (fun (_, (a, b)) ->
          let va = lookup g a and vb = lookup g b in
          va >= 0 && vb >= 0 && reaches va vb)

let tc =
  Query.make ~witness:tc_witness ~name:"tc" ~input:graph_schema
    ~output:(Schema.of_list [ ("T", 2) ])
    (fun i -> facts_of_pairs "T" (reachable_pairs i))

(* The active domain of an [E]-only instance is its endpoint set, i.e.
   the kernel's vertex set. When every expected pair resolves in the
   base and the delta touches no base vertex, reachability between base
   vertices is unchanged, so the answer staged against the base closure
   serves the probe — the common case under [Disjoint] extensions. *)
let comp_tc_witness ~base ~expected =
  let gb = Graph_kernel.of_rel "E" base in
  let exp = resolve2 gb expected in
  let staged =
    if List.for_all (fun (_, ((_, va), (_, vb))) -> va >= 0 && vb >= 0) exp
    then
      let rb = Graph_kernel.reacher gb in
      Some
        (first_failing exp (fun (_, ((_, va), (_, vb))) -> not (rb va vb)))
    else None
  in
  fun (d : Query.delta) ->
    match staged with
    | Some answer when not (delta_touches gb "E" d) -> answer
    | _ ->
      let g = Graph_kernel.extend_facts gb "E" d.Query.facts in
      let reaches = Graph_kernel.reacher g in
      first_failing exp (fun (_, (a, b)) ->
          let va = lookup g a and vb = lookup g b in
          va >= 0 && vb >= 0 && not (reaches va vb))

let comp_tc =
  Query.make ~witness:comp_tc_witness ~name:"comp-tc" ~input:graph_schema
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i ->
      let reach = reachable_pairs i in
      let dom = Value.Set.elements (Instance.adom i) in
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc b ->
              if Pair_set.mem (a, b) reach then acc
              else Instance.add (Fact.make "O" [ a; b ]) acc)
            acc dom)
        Instance.empty dom)

let edges_as_output i =
  Instance.fold
    (fun f acc ->
      if Fact.rel f = "E" then
        Instance.add (Fact.make "O" (Fact.args f)) acc
      else acc)
    i Instance.empty

let q_clique k =
  Query.make
    ~name:(Printf.sprintf "q-clique-%d" k)
    ~input:graph_schema
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i -> if has_clique i k then Instance.empty else edges_as_output i)

let q_star k =
  Query.make
    ~name:(Printf.sprintf "q-star-%d" k)
    ~input:graph_schema
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i -> if has_star i k then Instance.empty else edges_as_output i)

let duplicate_schema j =
  Schema.of_list (List.init j (fun k -> (Printf.sprintf "R%d" (k + 1), 2)))

let q_duplicate j =
  Query.make
    ~name:(Printf.sprintf "q-duplicate-%d" j)
    ~input:(duplicate_schema j)
    ~output:(Schema.of_list [ ("O", 2) ])
    (fun i ->
      let tuples rel =
        Instance.fold
          (fun f acc ->
            if Fact.rel f = rel then
              Pair_set.add (Fact.arg f 0, Fact.arg f 1) acc
            else acc)
          i Pair_set.empty
      in
      let inter =
        List.fold_left
          (fun acc k ->
            Pair_set.inter acc (tuples (Printf.sprintf "R%d" (k + 2))))
          (tuples "R1")
          (List.init (j - 1) Fun.id)
      in
      if Pair_set.is_empty inter then
        Instance.fold
          (fun f acc ->
            if Fact.rel f = "R1" then
              Instance.add (Fact.make "O" (Fact.args f)) acc
            else acc)
          i Instance.empty
      else Instance.empty)

(* Triangles of the extended graph as vertex triples, plus whether two of
   them share no vertex — the same cyclic enumeration as {!triangles}
   (rotations repeat a triple, which cannot affect the disjointness
   test). Delta-staged: the base adjacency matrix, triangle list, and
   disjoint-pair flag are computed once per base. Adding edges preserves
   triangles, so expected facts that are base triangles are discharged
   at staging; each probe enumerates only the triangles using at least
   one delta edge — every new triangle must — and tests the disjointness
   escape against those plus the staged base list. *)
let tri2d_witness ~base ~expected =
  let gb = Graph_kernel.of_rel "E" base in
  let nb = gb.Graph_kernel.n in
  let matb = Array.make (nb * nb) false in
  Array.iteri
    (fun x ys -> List.iter (fun y -> matb.((x * nb) + y) <- true) ys)
    gb.Graph_kernel.adj;
  let trisb = ref [] in
  Array.iteri
    (fun x ys ->
      List.iter
        (fun y ->
          if x <> y then
            List.iter
              (fun z ->
                if z <> y && z <> x && matb.((z * nb) + x) then
                  trisb := (x, y, z) :: !trisb)
              gb.Graph_kernel.adj.(y))
        ys)
    gb.Graph_kernel.adj;
  let trisb = !trisb in
  let disjoint (a, b, c) (d, e, f) =
    a <> d && a <> e && a <> f && b <> d && b <> e && b <> f && c <> d
    && c <> e && c <> f
  in
  let base_two_disjoint =
    List.exists (fun t1 -> List.exists (fun t2 -> disjoint t1 t2) trisb) trisb
  in
  let exp =
    List.map
      (fun f ->
        let x = Fact.arg f 0 and y = Fact.arg f 1 and z = Fact.arg f 2 in
        ( f,
          ( (x, Graph_kernel.vertex gb x),
            (y, Graph_kernel.vertex gb y),
            (z, Graph_kernel.vertex gb z) ) ))
      (Instance.to_list expected)
  in
  let is_base_triangle (_, ((_, vx), (_, vy), (_, vz))) =
    vx >= 0 && vy >= 0 && vz >= 0 && vx <> vy && vy <> vz && vx <> vz
    && matb.((vx * nb) + vy)
    && matb.((vy * nb) + vz)
    && matb.((vz * nb) + vx)
  in
  let unknown = List.filter (fun e -> not (is_base_triangle e)) exp in
  fun (d : Query.delta) ->
    let g = Graph_kernel.extend_facts gb "E" d.Query.facts in
    let n = g.Graph_kernel.n in
    (* Delta edges by extended vertex number, base duplicates dropped;
       base adjacency plus this list is the extended edge test. *)
    let dedges =
      List.filter_map
        (fun f ->
          if Fact.rel f = "E" && Fact.arity f = 2 then
            let u = Graph_kernel.vertex g (Fact.arg f 0)
            and v = Graph_kernel.vertex g (Fact.arg f 1) in
            if u < nb && v < nb && matb.((u * nb) + v) then None
            else Some (u, v)
          else None)
        d.Query.facts
    in
    let edge u v =
      (u < nb && v < nb && matb.((u * nb) + v))
      || List.exists (fun (a, b) -> a = u && b = v) dedges
    in
    let new_tris = ref [] in
    List.iter
      (fun (x, y) ->
        if x <> y then
          for z = 0 to n - 1 do
            if z <> x && z <> y && edge y z && edge z x then
              new_tris := (x, y, z) :: !new_tris
          done)
      dedges;
    let new_tris = !new_tris in
    let two_disjoint =
      base_two_disjoint
      || List.exists
           (fun t1 ->
             List.exists (fun t2 -> disjoint t1 t2) trisb
             || List.exists (fun t2 -> disjoint t1 t2) new_tris)
           new_tris
    in
    if two_disjoint then match exp with (f, _) :: _ -> Some f | [] -> None
    else
      first_failing unknown (fun (_, (x, y, z)) ->
          let vx = lookup g x and vy = lookup g y and vz = lookup g z in
          vx >= 0 && vy >= 0 && vz >= 0 && vx <> vy && vy <> vz && vx <> vz
          && edge vx vy && edge vy vz && edge vz vx)

let triangles_unless_two_disjoint =
  Query.make ~witness:tri2d_witness ~name:"triangles-unless-two-disjoint"
    ~input:graph_schema
    ~output:(Schema.of_list [ ("O", 3) ])
    (fun i ->
      let ts = triangles i in
      (* Two domain-disjoint triangles: two O-facts sharing no vertex. *)
      let facts = Instance.to_list ts in
      let disjoint_pair_exists =
        List.exists
          (fun f ->
            List.exists
              (fun g ->
                Value.Set.is_empty
                  (Value.Set.inter (Fact.adom f) (Fact.adom g)))
              facts)
          facts
      in
      if disjoint_pair_exists then Instance.empty else ts)

(* Win-move: alternating fixpoint over the Move graph, independent of the
   Datalog engine so that engine and query can cross-check each other. *)
let winmove_schema = Schema.of_list [ ("Move", 2) ]

(* Win-move is not monotone, but a delta touching no base vertex is a
   separate game component: base positions keep their game values, so
   the answer staged against the base game serves every such probe. *)
let winmove_witness ~base ~expected =
  let gb = Graph_kernel.of_rel "Move" base in
  let exp =
    List.map
      (fun f ->
        let x = Fact.arg f 0 in
        (f, (x, Graph_kernel.vertex gb x)))
      (Instance.to_list expected)
  in
  let staged =
    if List.for_all (fun (_, (_, v)) -> v >= 0) exp then begin
      let wb = Graph_kernel.wins gb in
      Some (first_failing exp (fun (_, (_, v)) -> wb.(v)))
    end
    else None
  in
  fun (d : Query.delta) ->
    match staged with
    | Some answer when not (delta_touches gb "Move" d) -> answer
    | _ ->
      let g = Graph_kernel.extend_facts gb "Move" d.Query.facts in
      let w = Graph_kernel.wins g in
      first_failing exp (fun (_, x) ->
          let v = lookup g x in
          v >= 0 && w.(v))

let winmove =
  Query.make ~witness:winmove_witness ~name:"win-move" ~input:winmove_schema
    ~output:(Schema.of_list [ ("Win", 1) ])
    (fun i ->
      let moves =
        Instance.fold
          (fun f acc ->
            if Fact.rel f = "Move" then
              Value.Map.update (Fact.arg f 0)
                (function
                  | None -> Some [ Fact.arg f 1 ]
                  | Some l -> Some (Fact.arg f 1 :: l))
                acc
            else acc)
          i Value.Map.empty
      in
      let succ x =
        match Value.Map.find_opt x moves with Some l -> l | None -> []
      in
      let vertices = Value.Set.elements (Instance.adom i) in
      (* Alternating fixpoint on the set of won positions: won(x) iff some
         successor is not in the current overestimate of "possibly won". *)
      let step possibly_won =
        List.filter
          (fun x ->
            List.exists (fun y -> not (Value.Set.mem y possibly_won)) (succ x))
          vertices
        |> Value.Set.of_list
      in
      let rec fix under over =
        let under' = step over in
        let over' = step under' in
        if Value.Set.equal under under' && Value.Set.equal over over' then
          under
        else fix under' over'
      in
      let won = fix Value.Set.empty (step Value.Set.empty) in
      Value.Set.fold
        (fun x acc -> Instance.add (Fact.make "Win" [ x ]) acc)
        won Instance.empty)

let winmove_program = "Win(x) :- Move(x,y), not Win(y)."

(* The doubled-program evaluation of win-move (Section 7): the library's
   construction, which iterates the connected SP-Datalog step
   [Win(x) :- Move(x,y), not Prev_Win(y)], feeding each round's win set
   back in as the edb relation [Prev_Win]. *)
let winmove_doubled =
  let program = Datalog.Parser.parse_program winmove_program in
  Query.make ~name:"win-move-doubled" ~input:winmove_schema
    ~output:(Schema.of_list [ ("Win", 1) ])
    (fun i ->
      Instance.restrict_rels
        (Datalog.Wellfounded.eval_via_doubling program i).true_facts
        [ "Win" ])

(* ------------------------------------------------------------------ *)
(* Datalog sources *)

let tc_program = "T(x,y) :- E(x,y).  T(x,z) :- T(x,y), E(y,z)."

let comp_tc_program =
  "T(x,y) :- E(x,y).\n\
   T(x,z) :- T(x,y), E(y,z).\n\
   O(x,y) :- Adom(x), Adom(y), not T(x,y)."

let example_51_p1 =
  "T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
   O(x) :- Adom(x), not T(x)."

let example_51_p2 =
  "T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.\n\
   D(x1) :- T(x1,x2,x3), T(y1,y2,y3), x1 != y1, x1 != y2, x1 != y3, x2 != \
   y1, x2 != y2, x2 != y3, x3 != y1, x3 != y2, x3 != y3.\n\
   O(x) :- Adom(x), not D(x)."

let undirected_rules =
  "U(x,y) :- E(x,y).\nU(x,y) :- E(y,x).\n"

let q_clique3_program =
  undirected_rules
  ^ "W(u) :- Adom(u), U(x,y), U(y,z), U(x,z), x != y, y != z, x != z.\n\
     O(x,y) :- E(x,y), not W(x)."

let q_star2_program =
  undirected_rules
  ^ "W(u) :- Adom(u), U(c,x), U(c,y), x != y, x != c, y != c.\n\
     O(x,y) :- E(x,y), not W(x)."
