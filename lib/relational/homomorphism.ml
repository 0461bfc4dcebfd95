type mapping = Value.t Value.Map.t

let apply_value h v =
  match Value.Map.find_opt v h with Some w -> w | None -> v

let apply_fact h f = Fact.map_values (apply_value h) f
let apply h i = Instance.map_values (apply_value h) i

let is_homomorphism h i j =
  Value.Set.for_all (fun v -> Value.Map.mem v h) (Instance.adom i)
  && Instance.for_all (fun f -> Instance.mem (apply_fact h f) j) i

let is_injective h =
  let images = Value.Map.fold (fun _ w acc -> w :: acc) h [] in
  List.length images
  = Value.Set.cardinal (Value.Set.of_list images)

(* Backtracking search: extend a partial mapping value by value, pruning
   with the facts whose adom is fully mapped. *)
let search ~injective i j =
  let facts_i = Instance.to_list i in
  let vals_i = Value.Set.elements (Instance.adom i) in
  let vals_j = Value.Set.elements (Instance.adom j) in
  let consistent h =
    List.for_all
      (fun f ->
        let mapped = Value.Set.for_all (fun v -> Value.Map.mem v h) (Fact.adom f) in
        (not mapped) || Instance.mem (apply_fact h f) j)
      facts_i
  in
  let rec go h used = function
    | [] -> if consistent h then Some h else None
    | v :: rest ->
      let try_image acc w =
        match acc with
        | Some _ -> acc
        | None ->
          if injective && Value.Set.mem w used then None
          else
            let h' = Value.Map.add v w h in
            if consistent h' then go h' (Value.Set.add w used) rest else None
      in
      List.fold_left try_image None vals_j
  in
  go Value.Map.empty Value.Set.empty vals_i

let find i j = search ~injective:false i j
let find_injective i j = search ~injective:true i j
let exists i j = find i j <> None
let exists_injective i j = find_injective i j <> None

let permutations_of set =
  let vals = Value.Set.elements set in
  let rec perms = function
    | [] -> [ [] ]
    | _ :: _ as l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> not (Value.equal x y)) l in
          List.map (fun p -> x :: p) (perms rest))
        l
  in
  List.map
    (fun image ->
      List.fold_left2
        (fun h v w -> Value.Map.add v w h)
        Value.Map.empty vals image)
    (perms vals)

let random_permutation ?(avoid = Value.Set.empty) ~seed set =
  let st = Random.State.make [| seed |] in
  let vals = Array.of_list (Value.Set.elements set) in
  let n = Array.length vals in
  if Random.State.bool st then begin
    (* Shuffle within the set. *)
    let image = Array.copy vals in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = image.(i) in
      image.(i) <- image.(j);
      image.(j) <- tmp
    done;
    Array.to_seq (Array.mapi (fun i v -> (v, image.(i))) vals)
    |> Seq.fold_left (fun h (v, w) -> Value.Map.add v w h) Value.Map.empty
  end
  else
    (* Move the set to fresh values entirely: a permutation of dom
       restricted to its action on [set]. *)
    let fresh = Value.fresh_not_in (Value.Set.union set avoid) n in
    List.fold_left2
      (fun h v w -> Value.Map.add v w h)
      Value.Map.empty (Array.to_list vals) fresh
