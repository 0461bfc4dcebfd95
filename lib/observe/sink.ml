type event = {
  ts : float;
  dur : float option;
  track : string;
  cat : string;
  name : string;
  args : (string * Json.t) list;
}

type t = {
  lock : Mutex.t;
  mutable enabled : bool;
  mutable t0 : float;
  mutable events : event list;  (* newest first *)
}

let create () =
  { lock = Mutex.create (); enabled = true; t0 = Metrics.now (); events = [] }

let default =
  { lock = Mutex.create (); enabled = false; t0 = 0.; events = [] }

let enable t =
  Mutex.lock t.lock;
  t.events <- [];
  t.t0 <- Metrics.now ();
  t.enabled <- true;
  Mutex.unlock t.lock

let disable t =
  Mutex.lock t.lock;
  t.enabled <- false;
  Mutex.unlock t.lock

let is_enabled t = t.enabled

let ambient_track : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "main")
let set_track name = Domain.DLS.set ambient_track name

let push t e =
  Mutex.lock t.lock;
  if t.enabled then t.events <- e :: t.events;
  Mutex.unlock t.lock

let span ?(sink = default) ?(cat = "app") ?(args = []) name f =
  if not sink.enabled then f ()
  else begin
    let t0 = Metrics.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Metrics.now () in
        push sink
          {
            ts = t0 -. sink.t0;
            dur = Some (t1 -. t0);
            track = Domain.DLS.get ambient_track;
            cat;
            name;
            args;
          })
      f
  end

let events t =
  Mutex.lock t.lock;
  let es = List.rev t.events in
  Mutex.unlock t.lock;
  es

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

(* https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   Tracks become tids with thread_name metadata, so Perfetto shows each
   one (a pool worker, a network node) as its own row. *)
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
  (* "main" first, then workers in name order. *)
  let tracks =
    List.sort_uniq
      (fun a b -> compare (a <> "main", a) (b <> "main", b))
      (List.map (fun e -> e.track) es)
  in
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
