(* Split a line at each '.' that ends a fact; a '.' inside a quoted
   constant is part of it. *)
let split_facts line =
  let chunks = ref [] and start = ref 0 and quoted = ref false in
  String.iteri
    (fun k c ->
      if c = '"' then quoted := not !quoted
      else if c = '.' && not !quoted then begin
        chunks := String.sub line !start (k - !start) :: !chunks;
        start := k + 1
      end)
    line;
  List.rev (String.sub line !start (String.length line - !start) :: !chunks)

let parse_facts s =
  s
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         let line = String.trim line in
         line = "" || line.[0] <> '%')
  |> List.concat_map split_facts
  |> List.filter_map (fun chunk ->
         let chunk = String.trim chunk in
         if chunk = "" then None else Some (Fact.of_string chunk))
  |> Instance.of_list

let print_facts i =
  Instance.to_list i |> List.map Fact.to_string |> String.concat "\n"
