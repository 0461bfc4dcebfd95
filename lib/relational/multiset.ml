type t = int Fact.Map.t
(* Invariant: all stored multiplicities are >= 1. *)

let empty = Fact.Map.empty
let is_empty = Fact.Map.is_empty
let size t = Fact.Map.fold (fun _ n acc -> acc + n) t 0
let support t = Fact.Map.fold (fun f _ acc -> Fact.Set.add f acc) t Fact.Set.empty
let count f t = match Fact.Map.find_opt f t with Some n -> n | None -> 0
let mem f t = Fact.Map.mem f t

let add ?(copies = 1) f t =
  if copies < 0 then invalid_arg "Multiset.add: negative copies";
  if copies = 0 then t else Fact.Map.add f (count f t + copies) t

let of_list l = List.fold_left (fun t f -> add f t) empty l
let of_instance i = Instance.fold (fun f t -> Fact.Map.add f 1 t) i empty
let union a b = Fact.Map.union (fun _ m n -> Some (m + n)) a b

(* Walks [b], the copies taken away: a transition's delivery, small
   next to the buffer it leaves. *)
let diff a b =
  Fact.Map.fold
    (fun f n t ->
      match Fact.Map.find_opt f t with
      | None -> t
      | Some m when m > n -> Fact.Map.add f (m - n) t
      | Some _ -> Fact.Map.remove f t)
    b a

let remove_one f t =
  match Fact.Map.find_opt f t with
  | None -> t
  | Some 1 -> Fact.Map.remove f t
  | Some n -> Fact.Map.add f (n - 1) t

let sub a b = Fact.Map.for_all (fun f n -> n <= count f b) a
let fold = Fact.Map.fold

let to_list t =
  Fact.Map.fold
    (fun f n acc -> List.rev_append (List.init n (fun _ -> f)) acc)
    t []
  |> List.sort Fact.compare

let nth t k =
  let rec go k s =
    match s () with
    | Seq.Nil -> invalid_arg "Multiset.nth: index out of range"
    | Seq.Cons ((f, n), s) -> if k < n then f else go (k - n) s
  in
  if k < 0 then invalid_arg "Multiset.nth: negative index"
  else go k (Fact.Map.to_seq t)

let equal a b = Fact.Map.equal Int.equal a b
let compare a b = Fact.Map.compare Int.compare a b

let pp ppf t =
  Format.fprintf ppf "{|%a|}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (f, n) ->
         if n = 1 then Fact.pp ppf f
         else Format.fprintf ppf "%a x%d" Fact.pp f n))
    (Fact.Map.bindings t)
