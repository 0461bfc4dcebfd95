let ( let* ) = Result.bind

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> error "missing field %S" name

let string_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | Some _ -> error "field %S is not a string" name
  | None -> error "missing field %S" name

let number_field name j =
  match Json.member name j with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some _ -> error "field %S is not a number" name
  | None -> error "missing field %S" name

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | Some _ -> error "field %S is not an integer" name
  | None -> error "missing field %S" name

let list_field name j =
  match Json.member name j with
  | Some (Json.List l) -> Ok l
  | Some _ -> error "field %S is not an array" name
  | None -> error "missing field %S" name

let obj_field name j =
  match Json.member name j with
  | Some (Json.Obj o) -> Ok o
  | Some _ -> error "field %S is not an object" name
  | None -> error "missing field %S" name

let expect_schema tag j =
  let* s = string_field "schema" j in
  if s = tag then Ok () else error "schema is %S, expected %S" s tag

let rec each f i = function
  | [] -> Ok ()
  | x :: rest -> (
    match f x with
    | Ok () -> each f (i + 1) rest
    | Error e -> error "entry %d: %s" i e)

let known_kinds = [ "counter"; "gauge"; "histogram"; "timing" ]

(* A [[tick, value]] / [[bucket, count]] pair list shared by the series
   points and the histogram buckets. *)
let pair_list ~what ~second_int name l =
  each
    (fun p ->
      match p with
      | Json.List [ Json.Int _; Json.Int _ ] -> Ok ()
      | Json.List [ Json.Int _; (Json.Float _ | Json.Null) ]
        when not second_int ->
        Ok ()
      | _ -> error "%S: %s entry is not an [int, %s] pair" name what
               (if second_int then "int" else "number"))
    0 l

let validate_row row =
  let* name = string_field "name" row in
  let* _ = obj_field "labels" row in
  let* kind = string_field "kind" row in
  let* count = int_field "count" row in
  let* _ = field "sum" row in
  let* _ = field "min" row in
  let* _ = field "max" row in
  let* _ = field "last" row in
  let* () =
    match Json.member "buckets" row with
    | None -> Ok ()
    | Some (Json.List l) -> pair_list ~what:"bucket" ~second_int:true name l
    | Some _ -> error "row %S: buckets is not an array" name
  in
  if not (List.mem kind known_kinds) then
    error "row %S has unknown kind %S" name kind
  else if count < 0 then error "row %S has negative count" name
  else Ok ()

let validate_metrics j =
  let* () = expect_schema "calm-metrics/v1" j in
  let* stable = list_field "metrics" j in
  let* volatile = list_field "volatile" j in
  let* () = each validate_row 0 stable in
  each validate_row 0 volatile

let validate_bench j =
  let* () = expect_schema "calm-bench/v1" j in
  let* _ = field "quick" j in
  let* jobs = int_field "jobs" j in
  let* experiments = list_field "experiments" j in
  if jobs < 1 then error "jobs must be >= 1"
  else if experiments = [] then error "experiments array is empty"
  else
    let seen = Hashtbl.create 32 in
    each
      (fun e ->
        let* id = string_field "id" e in
        let* wall = number_field "wall_s" e in
        let* _ = obj_field "metrics" e in
        if wall < 0. then error "experiment %S has negative wall_s" id
        else if Hashtbl.mem seen id then error "experiment id %S repeats" id
        else begin
          Hashtbl.add seen id ();
          Ok ()
        end)
      0 experiments

let validate_causal j =
  let* () = expect_schema "calm-causal/v1" j in
  let* network = list_field "network" j in
  let* () =
    each
      (function
        | Json.String _ -> Ok ()
        | _ -> error "network entry is not a string")
      0 network
  in
  if network = [] then error "network array is empty"
  else
    let* events = list_field "events" j in
    let fact_list name e =
      let* l = list_field name e in
      each
        (function
          | Json.String _ -> Ok ()
          | _ -> error "%s entry is not a string" name)
        0 l
    in
    each
      (fun e ->
        let* index = int_field "index" e in
        let* _node = string_field "node" e in
        let* lamport = int_field "lamport" e in
        let* vector = obj_field "vector" e in
        let* origins = list_field "origins" e in
        let* () = fact_list "delivered" e in
        let* () = fact_list "sent" e in
        let* () = fact_list "output_delta" e in
        if index < 1 then error "event index %d is not positive" index
        else if lamport < 1 then
          error "event #%d has lamport %d < 1" index lamport
        else
          let* () =
            each
              (function
                | _, Json.Int k when k >= 1 -> Ok ()
                | k, _ -> error "vector component %S is not a positive int" k)
              0 vector
          in
          let* () =
            each
              (function
                | Json.List [ Json.String _; Json.Int o ] when o >= 1 -> Ok ()
                | _ -> error "origin is not a [fact, send index] pair")
              0 origins
          in
          (* Fault annotations are optional (present only when
             non-default, so failure-free documents stay unchanged). *)
          let* () =
            match Json.member "dup" e with
            | None -> Ok ()
            | Some (Json.Int d) when d >= 1 -> Ok ()
            | Some _ -> error "event #%d: dup is not an int >= 1" index
          in
          let* () =
            match Json.member "restart" e with
            | None | Some (Json.Bool _) -> Ok ()
            | Some _ -> error "event #%d: restart is not a bool" index
          in
          let* () =
            match Json.member "injected" e with
            | None -> Ok ()
            | Some (Json.List _) -> fact_list "injected" e
            | Some _ -> error "event #%d: injected is not an array" index
          in
          if vector = [] then error "event #%d has an empty vector" index
          else Ok ())
      0 events

let validate_profile j =
  let* () = expect_schema "calm-profile/v1" j in
  let* spans = list_field "spans" j in
  each
    (fun s ->
      let* path = string_field "path" s in
      let* count = int_field "count" s in
      let* annots = obj_field "annots" s in
      let* total = number_field "total_s" s in
      let* self = number_field "self_s" s in
      if path = "" then error "span has an empty path"
      else if List.exists (( = ) "") (String.split_on_char '/' path) then
        error "span path %S has an empty frame" path
      else if count < 0 then error "span %S has negative count %d" path count
      else if total < 0. then error "span %S has negative total_s" path
      else if self < 0. then error "span %S has negative self_s" path
      else if self > total +. 1e-9 then
        error "span %S has self_s exceeding total_s" path
      else
        each
          (function
            | _, Json.Int v when v >= 0 -> Ok ()
            | k, _ ->
                error "span %S annot %S is not a non-negative int" path k)
          0 annots)
    0 spans

let validate_trace j =
  let* events = list_field "traceEvents" j in
  each
    (fun e ->
      let* ph = string_field "ph" e in
      let* _ = int_field "pid" e in
      let* _ = int_field "tid" e in
      if ph = "M" then Ok ()
      else
        let* _ = string_field "name" e in
        let* _ = number_field "ts" e in
        Ok ())
    0 events

(* The calm-series/v1 export is JSONL: a header line carrying the schema
   tag, then one object per series. Validated line by line so an error
   names the offending line. *)
let validate_series_row j =
  let* name = string_field "series" j in
  let* labels = obj_field "labels" j in
  let* () =
    each
      (function
        | _, Json.String _ -> Ok ()
        | k, _ -> error "label %S is not a string" k)
      0 labels
  in
  let* () =
    match Json.member "stable" j with
    | Some (Json.Bool _) -> Ok ()
    | Some _ -> error "series %S: stable is not a bool" name
    | None -> error "series %S: missing field \"stable\"" name
  in
  let* stride = int_field "stride" j in
  let* points = list_field "points" j in
  if name = "" then error "series has an empty name"
  else if stride < 1 then error "series %S has stride %d < 1" name stride
  else pair_list ~what:"point" ~second_int:false name points

let validate_series_jsonl s =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  match lines with
  | [] -> error "empty series document"
  | header :: rows ->
    let* h =
      match Json.of_string header with
      | Ok j -> Ok j
      | Error e -> error "header line: %s" e
    in
    let* () = expect_schema "calm-series/v1" h in
    let rec go lineno = function
      | [] -> Ok ()
      | line :: rest -> (
        match Json.of_string line with
        | Error e -> error "line %d: %s" lineno e
        | Ok j -> (
          match validate_series_row j with
          | Ok () -> go (lineno + 1) rest
          | Error e -> error "line %d: %s" lineno e))
    in
    go 2 rows
