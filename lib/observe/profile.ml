(* Hierarchical wall-time attribution layered on the Metrics registry.
   See profile.mli for the design constraints (zero cost when off,
   spans-as-metrics for jobs-invariance, rooted paths across domains). *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let sanitize frame =
  String.map
    (fun c ->
      match c with '/' | ';' | ' ' | '\n' | '\t' -> '_' | c -> c)
    frame

(* A span path with its metric handles, interned once: a visit finds its
   frame by the caller's frame names and records through handles built
   on the first visit, instead of joining the path string and
   re-registering its handles (a label sort and a hash under the intern
   lock) every time. Frames form one trie per domain, keyed by the names
   as given, so no domain touches another's frames and no lock is
   taken. *)
type frame = {
  path : string;  (** sanitized frame names, root first, '/'-joined *)
  span_h : Metrics.handle;
  time_h : Metrics.handle;
  mutable kids : (string * frame) list;
  mutable annots : (string * Metrics.handle) list;
}

let make_frame path =
  {
    path;
    span_h = Metrics.counter ~labels:[ ("path", path) ] "profile.span";
    time_h = Metrics.timing ~labels:[ ("path", path) ] "profile.time";
    kids = [];
    annots = [];
  }

let child parent name =
  match List.assoc_opt name parent.kids with
  | Some f -> f
  | None ->
    let name' = sanitize name in
    let f =
      make_frame
        (if parent.path = "" then name' else parent.path ^ "/" ^ name')
    in
    parent.kids <- (name, f) :: parent.kids;
    f

(* This domain's trie, and its ambient frame: the root (path "") until a
   span opens. Worker domains start at their own root — which is why
   pool-reachable sites must use [span_rooted]. *)
let roots : frame Domain.DLS.key =
  Domain.DLS.new_key (fun () -> make_frame "")

let ambient : frame Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Domain.DLS.get roots)

let record frame f =
  Metrics.incr frame.span_h;
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient frame;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set ambient saved)
    (fun () -> Metrics.time frame.time_h f)

let span name f =
  if not (Atomic.get enabled) then f ()
  else record (child (Domain.DLS.get ambient) name) f

let span_rooted path f =
  if not (Atomic.get enabled) then f ()
  else record (List.fold_left child (Domain.DLS.get roots) path) f

let annot ?(by = 1) key =
  if Atomic.get enabled then begin
    let frame = Domain.DLS.get ambient in
    let h =
      match List.assoc_opt key frame.annots with
      | Some h -> h
      | None ->
        let h =
          Metrics.counter
            ~labels:[ ("annot", sanitize key); ("path", frame.path) ]
            "profile.annot"
        in
        frame.annots <- (key, h) :: frame.annots;
        h
    in
    Metrics.incr ~by h
  end

(* ------------------------------------------------------------------ *)
(* Reconstruction: metric rows -> span forest.                         *)

type node = {
  path : string list;
  count : int;
  annots : (string * int) list;
  total_s : float;
  self_s : float;
  children : node list;
}

let spans t =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let times : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let annots : (string, (string * int) list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Metrics.row) ->
      let path = List.assoc_opt "path" r.Metrics.labels in
      match (r.Metrics.name, path) with
      | "profile.span", Some p -> Hashtbl.replace counts p r.Metrics.count
      | "profile.time", Some p -> Hashtbl.replace times p r.Metrics.sum
      | "profile.annot", Some p -> (
          match List.assoc_opt "annot" r.Metrics.labels with
          | Some k ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt annots p) in
              Hashtbl.replace annots p ((k, r.Metrics.count) :: prev)
          | None -> ())
      | _ -> ())
    (Metrics.snapshot t);
  let all_paths = Hashtbl.create 32 in
  let add_path p = if p <> "" then Hashtbl.replace all_paths p () in
  Hashtbl.iter (fun p _ -> add_path p) counts;
  Hashtbl.iter (fun p _ -> add_path p) times;
  Hashtbl.iter (fun p _ -> add_path p) annots;
  let frames =
    Hashtbl.fold (fun p () acc -> String.split_on_char '/' p :: acc) all_paths []
  in
  let rec build prefix frames =
    let heads =
      List.sort_uniq String.compare
        (List.filter_map (function [] -> None | h :: _ -> Some h) frames)
    in
    List.map
      (fun head ->
        let path = prefix @ [ head ] in
        let p = String.concat "/" path in
        let tails =
          List.filter_map
            (function
              | h :: (_ :: _ as tl) when h = head -> Some tl | _ -> None)
            frames
        in
        let children = build path tails in
        let total_s = Option.value ~default:0. (Hashtbl.find_opt times p) in
        let child_total =
          List.fold_left (fun acc c -> acc +. c.total_s) 0. children
        in
        {
          path;
          count = Option.value ~default:0 (Hashtbl.find_opt counts p);
          annots =
            List.sort compare (Option.value ~default:[] (Hashtbl.find_opt annots p));
          total_s;
          self_s = Float.max 0. (total_s -. child_total);
          children;
        })
      heads
  in
  build [] frames

let rec flatten nodes =
  List.concat_map (fun n -> n :: flatten n.children) nodes

let coverage n =
  if n.total_s <= 0. then 1.0
  else
    Float.min 1.0
      (List.fold_left (fun acc c -> acc +. c.total_s) 0. n.children /. n.total_s)

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let render_stable t =
  let buf = Buffer.create 256 in
  List.iter
    (fun n ->
      Buffer.add_string buf (String.concat "/" n.path);
      Buffer.add_string buf (Printf.sprintf " count=%d" n.count);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k v))
        n.annots;
      Buffer.add_char buf '\n')
    (flatten (spans t));
  Buffer.contents buf

let to_json t =
  let span_json n =
    Json.Obj
      [
        ("path", Json.String (String.concat "/" n.path));
        ("count", Json.Int n.count);
        ("annots", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) n.annots));
        ("total_s", Json.Float n.total_s);
        ("self_s", Json.Float n.self_s);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "calm-profile/v1");
      ("spans", Json.List (List.map span_json (flatten (spans t))));
    ]

let folded_of_spans stacks =
  let buf = Buffer.create 256 in
  List.iter
    (fun (frames, value) ->
      Buffer.add_string buf (String.concat ";" frames);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int value);
      Buffer.add_char buf '\n')
    stacks;
  Buffer.contents buf

let of_folded s =
  let ( let* ) = Result.bind in
  let parse_line lineno line =
    match String.rindex_opt line ' ' with
    | None -> Error (Printf.sprintf "folded line %d: no value field" lineno)
    | Some i ->
        let stack = String.sub line 0 i in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        let frames = String.split_on_char ';' stack in
        if List.exists (( = ) "") frames then
          Error (Printf.sprintf "folded line %d: empty frame" lineno)
        else (
          match int_of_string_opt value with
          | None ->
              Error (Printf.sprintf "folded line %d: value %S is not an integer" lineno value)
          | Some v when v < 0 ->
              Error (Printf.sprintf "folded line %d: negative value %d" lineno v)
          | Some v -> Ok (frames, v))
  in
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (lineno + 1) acc rest
    | line :: rest ->
        let* stack = parse_line lineno line in
        go (lineno + 1) (stack :: acc) rest
  in
  go 1 [] lines

let to_folded t =
  folded_of_spans
    (List.map
       (fun n ->
         (n.path, Stdlib.max 0 (int_of_float (Float.round (n.self_s *. 1e6)))))
       (flatten (spans t)))

let to_chrome_events t =
  let acc = ref [] in
  (* Children are laid out sequentially inside their parent: timings lose
     the original interleaving when aggregated, but nesting and relative
     widths — what a flame chart is for — survive. A span's total sums
     the time of every domain that ran it, so under a pool its children
     can sum past their parent's drawn width; they are then scaled to fit
     inside it. *)
  let rec emit ts dur n =
    let name = List.nth n.path (List.length n.path - 1) in
    let args =
      ("path", Json.String (String.concat "/" n.path))
      :: ("count", Json.Int n.count)
      :: List.map (fun (k, v) -> ("annot:" ^ k, Json.Int v)) n.annots
    in
    acc :=
      { Sink.ts; dur = Some dur; track = "profile"; cat = "profile"; name;
        args }
      :: !acc;
    let sum = List.fold_left (fun s c -> s +. c.total_s) 0. n.children in
    let scale = if sum > dur then dur /. sum else 1. in
    let stop = ts +. dur in
    ignore
      (List.fold_left
         (fun ts c ->
           let w = Float.max 0. (Float.min (c.total_s *. scale) (stop -. ts)) in
           emit ts w c;
           ts +. w)
         ts n.children)
  in
  ignore
    (List.fold_left
       (fun ts n -> emit ts n.total_s n; ts +. n.total_s)
       0. (spans t));
  List.rev !acc

let pp ?(redact_timings = false) ppf t =
  let roots = spans t in
  if roots = [] then Format.fprintf ppf "(no profile spans recorded)@."
  else begin
    Format.fprintf ppf "== profile: span tree (total / self / share of root) ==@.";
    let rec pp_node root_total n =
      let depth = List.length n.path - 1 in
      let name =
        String.make (2 * depth) ' ' ^ List.nth n.path depth
      in
      let annots =
        match n.annots with
        | [] -> ""
        | kvs ->
            "  ["
            ^ String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
            ^ "]"
      in
      if redact_timings then
        Format.fprintf ppf "%-40s count=%-9d total=- self=- share=-%s@." name
          n.count annots
      else
        Format.fprintf ppf
          "%-40s count=%-9d total=%9.3fms self=%9.3fms share=%5.1f%%%s@." name
          n.count (n.total_s *. 1e3) (n.self_s *. 1e3)
          (if root_total > 0. then 100. *. n.total_s /. root_total else 0.)
          annots;
      List.iter (pp_node root_total) n.children
    in
    List.iter (fun root -> pp_node root.total_s root) roots
  end
