module M = Map.Make (String)

type t = int M.t

let empty = M.empty

let add name ar t =
  if ar < 1 then
    invalid_arg
      (Printf.sprintf "Schema.add: relation %s has arity %d < 1" name ar);
  match M.find_opt name t with
  | Some ar' when ar' <> ar ->
    invalid_arg
      (Printf.sprintf "Schema.add: relation %s bound to arities %d and %d" name
         ar' ar)
  | _ -> M.add name ar t

let of_list l = List.fold_left (fun t (name, ar) -> add name ar t) empty l
let arity t name = M.find_opt name t

let arity_exn t name =
  match M.find_opt name t with
  | Some ar -> ar
  | None -> invalid_arg ("Schema.arity_exn: unknown relation " ^ name)

let mem t name = M.mem name t
let relations t = M.bindings t
let names t = List.map fst (M.bindings t)
let union a b = M.fold (fun name ar t -> add name ar t) b a

let disjoint_union a b =
  M.fold
    (fun name ar t ->
      if M.mem name t then
        invalid_arg ("Schema.disjoint_union: shared relation " ^ name)
      else M.add name ar t)
    b a

let diff a b = M.filter (fun name _ -> not (M.mem name b)) a
let restrict t keep = M.filter (fun name _ -> List.mem name keep) t
let subset a b = M.for_all (fun name ar -> M.find_opt name b = Some ar) a
let equal a b = M.equal Int.equal a b
let disjoint a b = M.for_all (fun name _ -> not (M.mem name b)) a

let fact_over t f = arity t (Fact.rel f) = Some (Fact.arity f)

let tuples_of_length values k =
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun v -> List.map (fun tl -> v :: tl) rest) values
  in
  go k

let all_facts t dom =
  let values = Value.Set.elements dom in
  M.fold
    (fun name ar acc ->
      List.rev_append
        (List.map (Fact.make name) (tuples_of_length values ar))
        acc)
    t []

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (name, ar) -> Format.fprintf ppf "%s/%d" name ar))
    (M.bindings t)

let to_string t = Format.asprintf "%a" pp t
