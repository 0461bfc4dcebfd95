(* Union-find over the active domain; facts glue their values together. *)

module UF = struct
  type t = { parent : (Value.t, Value.t) Hashtbl.t }

  let create () = { parent = Hashtbl.create 64 }

  let rec find t v =
    match Hashtbl.find_opt t.parent v with
    | None ->
      Hashtbl.add t.parent v v;
      v
    | Some p ->
      if Value.equal p v then v
      else begin
        let root = find t p in
        Hashtbl.replace t.parent v root;
        root
      end

  let union t a b =
    let ra = find t a and rb = find t b in
    if not (Value.equal ra rb) then Hashtbl.replace t.parent ra rb
end

let components i =
  let uf = UF.create () in
  Instance.iter
    (fun f ->
      match Fact.args f with
      | [] -> ()
      | v0 :: rest -> List.iter (fun v -> UF.union uf v0 v) rest)
    i;
  let groups = Hashtbl.create 16 in
  Instance.iter
    (fun f ->
      match Fact.args f with
      | [] -> ()
      | v :: _ ->
        let root = UF.find uf v in
        let cur =
          match Hashtbl.find_opt groups root with
          | Some c -> c
          | None -> Instance.empty
        in
        Hashtbl.replace groups root (Instance.add f cur))
    i;
  Hashtbl.fold (fun _ c acc -> c :: acc) groups []
  |> List.sort Instance.compare

let component_of i v =
  match
    List.find_opt (fun c -> Value.Set.mem v (Instance.adom c)) (components i)
  with
  | Some c -> c
  | None -> Instance.empty

let count i = List.length (components i)

let is_component_of j i =
  (not (Instance.is_empty j))
  && Instance.subset j i
  && Instance.is_domain_disjoint_from j (Instance.diff i j)
  &&
  (* Minimality: no strict nonempty subset J' of J is adom-disjoint from
     I \ J'. Equivalent: J has exactly one component. *)
  count j = 1
