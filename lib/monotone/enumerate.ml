open Relational

let check_size what n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Enumerate.%s: negative size %d" what n)

let value_pool n =
  check_size "value_pool" n;
  List.init n (fun i -> Value.Int (i + 1))

let fresh_pool n =
  check_size "fresh_pool" n;
  List.init n (fun i -> Value.Int (9_000_000 + i))

(* Subsets in nondecreasing size order so that small counterexamples are
   found first. *)
let subsets_up_to items k =
  let items = Array.of_list items in
  let n = Array.length items in
  let rec choose size start acc () =
    if size = 0 then Seq.Cons (List.rev acc, fun () -> Seq.Nil)
    else
      let rec from i () =
        if i > n - size then Seq.Nil
        else
          Seq.append
            (choose (size - 1) (i + 1) (items.(i) :: acc))
            (from (i + 1))
            ()
      in
      from start ()
  in
  let rec sizes s () =
    if s > min k n then Seq.Nil
    else Seq.append (choose s 0 []) (sizes (s + 1)) ()
  in
  sizes 0

(* The scan's kernel: [subsets_up_to]'s order without its empty subset,
   walked by index. [idx] holds the chosen positions of the subset being
   built; a complete one is read back to front, so its list ascends
   with no reversal and allocates only its own cells. *)
let subsets_until items k stop =
  let n = Array.length items in
  let top = min k n in
  let idx = Array.make (max top 0) 0 in
  let visited = ref 0 in
  let stopped = ref false in
  let rec read j acc =
    if j < 0 then acc else read (j - 1) (items.(idx.(j)) :: acc)
  in
  let rec choose size depth start =
    if depth = size then begin
      incr visited;
      stopped := stop (read (size - 1) [])
    end
    else begin
      let i = ref start in
      while (not !stopped) && !i <= n - (size - depth) do
        idx.(depth) <- !i;
        choose size (depth + 1) (!i + 1);
        incr i
      done
    end
  in
  let size = ref 1 in
  while (not !stopped) && !size <= top do
    choose !size 0 0;
    incr size
  done;
  !visited

let subsets_count n k =
  (* C(n, s) from C(n, s-1): the product is divisible by [s]. *)
  let rec sum s c acc =
    if s > min k n then acc
    else
      let c = c * (n - s + 1) / s in
      sum (s + 1) c (acc + c)
  in
  sum 1 1 0

let instances schema ~dom ~max_facts =
  let facts =
    Schema.all_facts schema (Value.Set.of_list dom)
    |> List.sort Fact.compare
  in
  Seq.map Instance.of_list (subsets_up_to facts max_facts)

(* [base] is its orbit's leader unless some permutation of [movable]
   maps it before itself in [instances]' order: for images of one size,
   that order is the lexicographic order of ascending fact lists, which
   is [Instance.compare]. An image depends only on where the base's own
   movable values go, and every injection of those into [movable]
   extends to a permutation of it, so the search tries the injections
   alone: at most [|movable|! / (|movable| - k)!] of them for [k] moved
   values, not [|movable|!]. *)
let is_leader ~movable base =
  let moved =
    Value.Set.elements (Value.Set.inter (Instance.adom base) movable)
  in
  let images = Value.Set.elements movable in
  let rec precedes h used = function
    | [] -> Instance.compare (Homomorphism.apply h base) base < 0
    | v :: rest ->
      List.exists
        (fun w ->
          (not (Value.Set.mem w used))
          && precedes (Value.Map.add v w h) (Value.Set.add w used) rest)
        images
  in
  not (precedes Value.Map.empty Value.Set.empty moved)

(* [Array.length (candidates ...)] without building them: a relation of
   arity [k] has [n^k] facts over [n] values. The fresh values in
   [adom base] are old ones. *)
let candidate_count kind ~base ~schema ~fresh =
  let base_dom = Instance.adom base in
  let n_old = Value.Set.cardinal base_dom in
  let n_new =
    Value.Set.cardinal (Value.Set.diff (Value.Set.of_list fresh) base_dom)
  in
  let rec pow b k = if k = 0 then 1 else b * pow b (k - 1) in
  let over n =
    List.fold_left (fun acc (_, ar) -> acc + pow n ar) 0
      (Schema.relations schema)
  in
  match (kind : Classes.kind) with
  | Plain ->
    over (n_old + n_new) - Instance.cardinal (Instance.restrict base schema)
  | Distinct -> over (n_old + n_new) - over n_old
  | Disjoint -> over n_new

(* The kind's test reads a fact's arguments in place: a fact with a
   value outside [adom base] is not in [base]. *)
let candidates kind ~base ~schema ~fresh =
  let base_dom = Instance.adom base in
  let old v = Value.Set.mem v base_dom in
  let rec some_arg p f i =
    i < Fact.arity f && (p (Fact.arg f i) || some_arg p f (i + 1))
  in
  let pool =
    match (kind : Classes.kind) with
    | Disjoint -> Value.Set.of_list fresh
    | Plain | Distinct -> Value.Set.union base_dom (Value.Set.of_list fresh)
  in
  Schema.all_facts schema pool
  |> List.filter (fun f ->
         match kind with
         | Classes.Plain -> not (Instance.mem f base)
         | Classes.Distinct -> some_arg (fun v -> not (old v)) f 0
         | Classes.Disjoint -> not (some_arg old f 0))
  |> List.sort Fact.compare |> Array.of_list
