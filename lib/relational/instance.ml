type t = Fact.Set.t

let empty = Fact.Set.empty
let is_empty = Fact.Set.is_empty
let cardinal = Fact.Set.cardinal
let of_list l = Fact.Set.of_list l
let of_set s = s
let to_list = Fact.Set.elements
let of_strings l = of_list (List.map Fact.of_string l)
let add = Fact.Set.add
let remove = Fact.Set.remove
let mem = Fact.Set.mem
let union = Fact.Set.union
let inter = Fact.Set.inter
let diff = Fact.Set.diff
let subset = Fact.Set.subset
let equal = Fact.Set.equal
let compare = Fact.Set.compare
let filter = Fact.Set.filter
let fold = Fact.Set.fold
let iter = Fact.Set.iter
let for_all = Fact.Set.for_all
let exists = Fact.Set.exists
let map_values g t = Fact.Set.map (Fact.map_values g) t

let adom t =
  Fact.Set.fold
    (fun f acc ->
      Array.fold_left (fun acc v -> Value.Set.add v acc) acc f.Fact.args)
    t Value.Set.empty

let restrict t sigma = Fact.Set.filter (Schema.fact_over sigma) t

module Sset = Set.Make (String)

let restrict_rels t names =
  match names with
  | [] -> Fact.Set.empty
  | [ name ] -> Fact.Set.filter (fun f -> Fact.rel f = name) t
  | _ ->
    let names = Sset.of_list names in
    Fact.Set.filter (fun f -> Sset.mem (Fact.rel f) names) t

(* Facts sort by relation name first ({!Fact.compare}), so the facts of
   one relation, and those of every relation whose name starts with a
   given prefix, form one contiguous run of the set. A range read finds
   the run's first fact ([rel f >= name] is monotone in the set order)
   and walks forward while the test holds, consing, so the list comes
   out in descending order, as a fold over the whole set would give it. *)
let range t first keep =
  let rec go acc s =
    match s () with
    | Seq.Cons (f, s) when keep (Fact.rel f) -> go (f :: acc) s
    | _ -> acc
  in
  let from f = String.compare (Fact.rel f) first >= 0 in
  match Fact.Set.find_first_opt from t with
  | None -> []
  | Some f -> go [] (Fact.Set.to_seq_from f t)

let by_rel t name = range t name (String.equal name)
let by_prefix t prefix = range t prefix (String.starts_with ~prefix)

(* Order-insensitive only because set iteration is sorted: the digest is
   a fold over facts in {!Fact.compare} order, so equal instances hash
   equally. Each fact is digested by the structural [Hashtbl.hash], which
   agrees with {!Fact.equal} and, unlike {!Fact.hash}, allocates nothing.
   Cheap enough for memo keys; not cryptographic. *)
let hash t =
  Fact.Set.fold (fun f acc -> (acc * 486187739) + Hashtbl.hash f) t 0x9e3779b9

(* Least fact of [a] missing from [b] — equals
   [List.hd (to_list (diff a b))] when the diff is non-empty, without
   materializing the diff. The scan hot path leans on this equality to
   keep certificates byte-identical with the seed checker. *)
let first_missing a b =
  Fact.Set.to_seq a |> Seq.find (fun f -> not (Fact.Set.mem f b))

let schema t =
  Fact.Set.fold (fun f acc -> Schema.add (Fact.rel f) (Fact.arity f) acc) t
    Schema.empty

let over t sigma = Fact.Set.for_all (Schema.fact_over sigma) t
let induced t c = Fact.Set.filter (fun f -> Value.Set.subset (Fact.adom f) c) t

let touching t c =
  Fact.Set.filter
    (fun f -> not (Value.Set.is_empty (Value.Set.inter (Fact.adom f) c)))
    t

let is_domain_distinct_from j i =
  let dom_i = adom i in
  Fact.Set.for_all
    (fun f -> not (Value.Set.subset (Fact.adom f) dom_i))
    j

let is_domain_disjoint_from j i =
  Value.Set.is_empty (Value.Set.inter (adom j) (adom i))

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Fact.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t
