type t = { rel : string; args : Value.t array }

let make rel args =
  if args = [] then invalid_arg "Fact.make: nullary facts are not supported";
  { rel; args = Array.of_list args }

let make_array rel args =
  if Array.length args = 0 then
    invalid_arg "Fact.make_array: nullary facts are not supported";
  { rel; args = Array.copy args }

let rel f = f.rel
let args f = Array.to_list f.args
let arity f = Array.length f.args
let arg f i = f.args.(i)

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    let c = Stdlib.compare la lb in
    if c <> 0 then c
    else
      let rec go i =
        if i = la then 0
        else
          let c = Value.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0
let hash f = Hashtbl.hash (f.rel, Array.map Value.hash f.args)

let adom f =
  Array.fold_left (fun acc v -> Value.Set.add v acc) Value.Set.empty f.args

let map_values g f = { f with args = Array.map g f.args }
let is_invented f = Array.exists Value.is_invented f.args

let to_string f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat "," (Array.to_list (Array.map Value.to_string f.args)))

let pp ppf f = Format.pp_print_string ppf (to_string f)

(* The fact syntax of a program: an argument is an integer, a bare
   symbol, or one double-quoted string without a '"' inside, which reads
   as that symbol. A parenthesis belongs to no argument, and only white
   space may follow the closing one. *)
let of_string s =
  let s = String.trim s in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Fact.of_string: " ^ m)) fmt
  in
  let n = String.length s in
  (* Index of the closing parenthesis; a quoted string is skipped whole,
     so its commas and parentheses are its own. *)
  let rec close j quoted =
    if j = n then
      if quoted then fail "unbalanced quote in %s" s
      else fail "missing ')' in %s" s
    else
      match s.[j] with
      | '"' -> close (j + 1) (not quoted)
      | _ when quoted -> close (j + 1) quoted
      | '(' -> fail "parenthesis inside an argument in %s" s
      | ')' -> j
      | _ -> close (j + 1) quoted
  in
  (* Comma-separated arguments of [s.[i..j)], commas inside quotes kept. *)
  let rec split i j start quoted acc =
    if i = j then List.rev (String.sub s start (j - start) :: acc)
    else
      match s.[i] with
      | '"' -> split (i + 1) j start (not quoted) acc
      | ',' when not quoted ->
        split (i + 1) j (i + 1) quoted (String.sub s start (i - start) :: acc)
      | _ -> split (i + 1) j start quoted acc
  in
  let value arg =
    let arg = String.trim arg in
    let k = String.length arg in
    if arg = "" then fail "bad fact %s" s
    else if not (String.contains arg '"') then Value.of_string arg
    else if
      k >= 2
      && arg.[0] = '"'
      && arg.[k - 1] = '"'
      && not (String.contains (String.sub arg 1 (k - 2)) '"')
    then Value.Sym (String.sub arg 1 (k - 2))
    else fail "unbalanced quote in %s" s
  in
  match String.index_opt s '(' with
  | None -> fail "missing '(' in %s" s
  | Some i ->
    let j = close (i + 1) false in
    let rest = String.trim (String.sub s (j + 1) (n - j - 1)) in
    if rest <> "" then
      if rest.[0] = ')' then fail "parenthesis inside an argument in %s" s
      else fail "missing '.' after %s" (String.sub s 0 (j + 1));
    let rel = String.trim (String.sub s 0 i) in
    if rel = "" then fail "bad fact %s" s;
    make rel (List.map value (split (i + 1) j (i + 1) false []))

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
