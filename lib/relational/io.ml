let parse_facts s =
  s
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         let line = String.trim line in
         line = "" || line.[0] <> '%')
  |> List.concat_map (String.split_on_char '.')
  |> List.filter_map (fun chunk ->
         let chunk = String.trim chunk in
         if chunk = "" then None else Some (Fact.of_string chunk))
  |> Instance.of_list

let print_facts i =
  Instance.to_list i |> List.map Fact.to_string |> String.concat "\n"
