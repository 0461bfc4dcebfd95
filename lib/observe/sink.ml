type event = {
  ts : float;
  dur : float option;
  track : string;
  cat : string;
  name : string;
  args : (string * Json.t) list;
}

(* https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   Tracks become tids with thread_name metadata, so Perfetto shows each
   one (the profile, a network node) as its own row. *)
let chrome_tid ~tracks tr =
  let rec idx i = function
    | [] -> 0
    | t :: _ when t = tr -> i
    | _ :: rest -> idx (i + 1) rest
  in
  1 + idx 0 tracks

let chrome_document ~tracks body =
  let meta =
    List.map
      (fun tr ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int (chrome_tid ~tracks tr));
            ("args", Json.Obj [ ("name", Json.String tr) ]);
          ])
      tracks
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (meta @ body));
         ("displayTimeUnit", Json.String "ms");
       ])

(* Spans are "X" complete events; instants are "i"; timestamps are
   microseconds. *)
let to_chrome es =
  let tracks = List.sort_uniq String.compare (List.map (fun e -> e.track) es) in
  let us s = Json.Float (s *. 1e6) in
  chrome_document ~tracks
    (List.map
       (fun e ->
         let common =
           [
             ("name", Json.String e.name);
             ("cat", Json.String e.cat);
             ("ts", us e.ts);
             ("pid", Json.Int 1);
             ("tid", Json.Int (chrome_tid ~tracks e.track));
             ("args", Json.Obj e.args);
           ]
         in
         match e.dur with
         | Some d ->
           Json.Obj (("ph", Json.String "X") :: ("dur", us d) :: common)
         | None ->
           Json.Obj
             (("ph", Json.String "i") :: ("s", Json.String "t") :: common))
       es)
