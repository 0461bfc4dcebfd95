(* Bounded ring-buffer time-series recorder. See series.mli for the
   design constraints (one-atomic-load gate when off, tick-keyed points
   so merging is schedule-independent, stride-doubling downsampling that
   commutes with merge). *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let default_capacity = 512

type point = { tick : int; value : float }

type series = {
  mutable stride : int;
  mutable rev_points : point list;  (* newest first *)
  mutable n : int;
}

type key = string * (string * string) list

type t = {
  lock : Mutex.t;
  capacity : int;
  tbl : (key, series) Hashtbl.t;
}

let create ?(capacity = default_capacity) () =
  { lock = Mutex.create (); capacity = max 2 capacity; tbl = Hashtbl.create 8 }

let root = create ()

let ambient : t Domain.DLS.key = Domain.DLS.new_key (fun () -> root)

let current () = Domain.DLS.get ambient

let with_current t f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

(* Task buffers never downsample: they hold every raw point of one
   bounded work unit so that replaying them into the caller's recorder
   (in input order) reconstructs exactly the sequential arrival
   sequence — stride decisions included. *)
let task_buffer () = create ~capacity:max_int ()

(* Ambient label context: [with_label] scopes an extra label onto every
   sample recorded inside, e.g. the sweep labels each cell so parallel
   cells keep distinct series. *)
let label_ctx : (string * string) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let with_label kv f =
  let saved = Domain.DLS.get label_ctx in
  Domain.DLS.set label_ctx (kv :: saved);
  Fun.protect ~finally:(fun () -> Domain.DLS.set label_ctx saved) f

(* ------------------------------------------------------------------ *)
(* Recording *)

(* Ticks are non-negative in practice; Euclidean remainder keeps the
   keep-set well-defined either way. *)
let keeps stride tick = tick mod stride = 0 || (tick mod stride) + stride = 0

let downsample_series s =
  s.stride <- 2 * s.stride;
  let kept = List.filter (fun p -> keeps s.stride p.tick) s.rev_points in
  s.rev_points <- kept;
  s.n <- List.length kept

let find_series t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
    let s = { stride = 1; rev_points = []; n = 0 } in
    Hashtbl.add t.tbl key s;
    s

(* The one append path, shared by recording and merge replay, so both
   make identical keep/downsample decisions. Caller holds [t.lock]. *)
let push t s ~tick value =
  if keeps s.stride tick then begin
    (match s.rev_points with
    | p :: rest when p.tick = tick ->
      (* Same tick sampled again: last write wins. *)
      s.rev_points <- { tick; value } :: rest
    | _ ->
      s.rev_points <- { tick; value } :: s.rev_points;
      s.n <- s.n + 1);
    while s.n > t.capacity do
      downsample_series s
    done
  end

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let sample ?(labels = []) name ~tick value =
  if Atomic.get enabled then begin
    let t = current () in
    let labels = normalize_labels (labels @ Domain.DLS.get label_ctx) in
    Mutex.lock t.lock;
    (try push t (find_series t (name, labels)) ~tick value
     with e ->
       Mutex.unlock t.lock;
       raise e);
    Mutex.unlock t.lock
  end

(* ------------------------------------------------------------------ *)
(* Merge *)

let merge_into dst src =
  (* [src] is owned by a finished task, so only [dst] needs locking.
     Keys replay in sorted order and points in arrival order, so the
     merged recorder is a deterministic function of the input-ordered
     task buffers, independent of scheduling. Strides align upward
     before the replay: filtering by stride depends only on the tick, so
     downsampling commutes with merging (the property the test wall
     pins). *)
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) src.tbl [])
  in
  Mutex.lock dst.lock;
  (try
     List.iter
       (fun key ->
         let s = Hashtbl.find src.tbl key in
         let d = find_series dst key in
         if s.stride > d.stride then begin
           d.stride <- s.stride;
           let kept = List.filter (fun p -> keeps d.stride p.tick) d.rev_points in
           d.rev_points <- kept;
           d.n <- List.length kept
         end;
         List.iter
           (fun p -> push dst d ~tick:p.tick p.value)
           (List.rev s.rev_points))
       keys
   with e ->
     Mutex.unlock dst.lock;
     raise e);
  Mutex.unlock dst.lock

let downsample t =
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ s -> downsample_series s) t.tbl;
  Mutex.unlock t.lock

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Snapshots and exporters *)

type row = {
  name : string;
  labels : (string * string) list;
  stride : int;
  points : point list;  (* arrival order *)
}

let rows t =
  Mutex.lock t.lock;
  let out =
    Hashtbl.fold
      (fun (name, labels) (s : series) acc ->
        if s.rev_points = [] then acc
        else
          { name; labels; stride = s.stride; points = List.rev s.rev_points }
          :: acc)
      t.tbl []
  in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    out

let num f =
  if Float.is_nan f then "nan"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let render_stable t =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s%s stride=%d n=%d points=%s\n" r.name
           (label_string r.labels) r.stride (List.length r.points)
           (String.concat ","
              (List.map
                 (fun p -> Printf.sprintf "%d:%s" p.tick (num p.value))
                 r.points))))
    (rows t);
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Json.to_string (Json.Obj [ ("schema", Json.String "calm-series/v1") ]));
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b
        (Json.to_string
           (Json.Obj
              [
                ("series", Json.String r.name);
                ( "labels",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.String v)) r.labels) );
                ("stable", Json.Bool true);
                ("stride", Json.Int r.stride);
                ( "points",
                  Json.List
                    (List.map
                       (fun p ->
                         Json.List [ Json.Int p.tick; Json.Float p.value ])
                       r.points) );
              ]));
      Buffer.add_char b '\n')
    (rows t);
  Buffer.contents b
