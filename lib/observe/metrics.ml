type kind = Counter | Gauge | Histogram | Timing

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"
  | Timing -> "timing"

type handle = {
  id : int;
  name : string;
  labels : (string * string) list;
  kind : kind;
}

(* Timings are the one schedule-dependent kind. *)
let is_stable kind = kind <> Timing

(* ------------------------------------------------------------------ *)
(* The global intern table: a metric identity is (name, labels, kind),
   shared by every collector. Handles are created at module
   initialization time (or lazily for dynamic labels), never on a hot
   path. *)

let intern_lock = Mutex.create ()
let interned : (string * (string * string) list * kind, handle) Hashtbl.t =
  Hashtbl.create 64
let registered : handle list ref = ref []
let next_id = ref 0

let register ?(labels = []) kind name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  Mutex.lock intern_lock;
  let h =
    match Hashtbl.find_opt interned (name, labels, kind) with
    | Some h -> h
    | None ->
      let h = { id = !next_id; name; labels; kind } in
      incr next_id;
      Hashtbl.add interned (name, labels, kind) h;
      registered := h :: !registered;
      h
  in
  Mutex.unlock intern_lock;
  h

let counter ?labels name = register ?labels Counter name
let gauge ?labels name = register ?labels Gauge name
let histogram ?labels name = register ?labels Histogram name
let timing ?labels name = register ?labels Timing name

(* ------------------------------------------------------------------ *)
(* Log-bucketed value histograms (HDR-style).

   A bucket key is derived from the value alone — sign, power-of-two
   octave, and one of [sub_count] equal mantissa sub-buckets — so the
   same multiset of observations always lands in the same buckets no
   matter the order or the domain that recorded them, and merging is
   per-key count addition. That exactness is what keeps quantile
   readouts byte-identical across [jobs]. Key layout: 0 is the zero
   bucket; positive values map to [bucket_offset + octave*sub_count +
   sub] (monotone in the value), negative values to the negated key, so
   integer key order is value order. Non-finite observations update
   (count, sum, last) but are not bucketed. *)

let sub_count = 8
let bucket_offset = 100_000

let bucket_of_value v =
  if v = 0. then 0
  else
    let m, e = Float.frexp (Float.abs v) in
    (* m in [0.5, 1): sub-bucket of width 0.5 / sub_count. *)
    let sub = int_of_float ((m -. 0.5) *. 2. *. float_of_int sub_count) in
    let sub = if sub >= sub_count then sub_count - 1 else sub in
    let idx = (e * sub_count) + sub in
    if v > 0. then bucket_offset + idx else -(bucket_offset + idx)

(* The bucket's representative: its edge closest to zero, so quantile
   readouts are conservative in magnitude and, like the key itself,
   depend only on the bucket. *)
let bucket_value k =
  if k = 0 then 0.
  else
    let idx = abs k - bucket_offset in
    let e =
      if idx >= 0 then idx / sub_count
      else -(((-idx) + sub_count - 1) / sub_count)
    in
    let sub = idx - (e * sub_count) in
    let m = 0.5 +. (float_of_int sub *. 0.5 /. float_of_int sub_count) in
    let v = Float.ldexp m e in
    if k > 0 then v else -.v

(* ------------------------------------------------------------------ *)
(* Collectors *)

type cell = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable last : float;
  (* Allocated on the first [observe]; counters and gauges never pay
     for it. *)
  mutable buckets : (int, int) Hashtbl.t option;
}

let bucket_incr c k n =
  let tbl =
    match c.buckets with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      c.buckets <- Some tbl;
      tbl
  in
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

type t = { lock : Mutex.t; mutable cells : cell option array }

let create () = { lock = Mutex.create (); cells = Array.make 32 None }

let root = create ()

let ambient : t Domain.DLS.key = Domain.DLS.new_key (fun () -> root)

let current () = Domain.DLS.get ambient

let with_current t f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

let silenced f = with_current (create ()) f

let cell_of t (h : handle) =
  let n = Array.length t.cells in
  if h.id >= n then begin
    let cells = Array.make (max (h.id + 1) (2 * n)) None in
    Array.blit t.cells 0 cells 0 n;
    t.cells <- cells
  end;
  match t.cells.(h.id) with
  | Some c -> c
  | None ->
    let c =
      {
        count = 0;
        sum = 0.;
        vmin = nan;
        vmax = nan;
        last = nan;
        buckets = None;
      }
    in
    t.cells.(h.id) <- Some c;
    c

let widen c v =
  if c.count = 1 then begin
    c.vmin <- v;
    c.vmax <- v
  end
  else begin
    if v < c.vmin then c.vmin <- v;
    if v > c.vmax then c.vmax <- v
  end

let record t h f =
  Mutex.lock t.lock;
  (try f (cell_of t h)
   with e ->
     Mutex.unlock t.lock;
     raise e);
  Mutex.unlock t.lock

let incr ?(by = 1) h =
  record (current ()) h (fun c ->
      c.count <- c.count + by;
      c.sum <- c.sum +. float_of_int by)

let observe h v =
  record (current ()) h (fun c ->
      c.count <- c.count + 1;
      c.sum <- c.sum +. v;
      c.last <- v;
      widen c v;
      if Float.is_finite v then bucket_incr c (bucket_of_value v) 1)

let set h v =
  record (current ()) h (fun c ->
      c.count <- c.count + 1;
      c.last <- v)

let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let merge_into dst src =
  (* Collectors are merged by the domain that owns [src] after its task
     completed, so only [dst] needs locking. *)
  Mutex.lock dst.lock;
  Array.iteri
    (fun id src_cell ->
      match src_cell with
      | None -> ()
      | Some s when s.count = 0 -> ()
      | Some s ->
        let h =
          (* ids are dense; find the handle to size dst's array. *)
          { id; name = ""; labels = []; kind = Counter }
        in
        let d = cell_of dst h in
        let was_empty = d.count = 0 in
        d.count <- d.count + s.count;
        d.sum <- d.sum +. s.sum;
        d.last <- s.last;
        if was_empty then begin
          d.vmin <- s.vmin;
          d.vmax <- s.vmax
        end
        else begin
          if s.vmin < d.vmin then d.vmin <- s.vmin;
          if s.vmax > d.vmax then d.vmax <- s.vmax
        end;
        (* Bucketed histograms merge exactly: per-key count addition. *)
        match s.buckets with
        | None -> ()
        | Some tbl -> Hashtbl.iter (fun k n -> bucket_incr d k n) tbl)
    src.cells;
  Mutex.unlock dst.lock

let reset t =
  Mutex.lock t.lock;
  Array.iteri (fun i _ -> t.cells.(i) <- None) t.cells;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type row = {
  name : string;
  labels : (string * string) list;
  kind : kind;
  stable : bool;
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  last : float;
  buckets : (int * int) list;
}

let row_buckets (c : cell) =
  match c.buckets with
  | None -> []
  | Some tbl ->
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* Nearest-rank quantile over the bucket counts: the representative of
   the bucket holding the ceil(p * n)-th observation. [nan] when nothing
   was bucketed (counters, gauges, empty or all-non-finite histograms). *)
let quantile (r : row) p =
  match r.buckets with
  | [] -> nan
  | buckets ->
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
    let rank = int_of_float (Float.ceil (p *. float_of_int total)) in
    let rank = max 1 (min rank total) in
    let rec go acc = function
      | [] -> r.vmax
      | (k, n) :: rest ->
        let acc = acc + n in
        if acc >= rank then bucket_value k else go acc rest
    in
    go 0 buckets

let snapshot ?(stable_only = false) t =
  Mutex.lock intern_lock;
  let handles = !registered in
  Mutex.unlock intern_lock;
  Mutex.lock t.lock;
  let rows =
    List.filter_map
      (fun (h : handle) ->
        if stable_only && not (is_stable h.kind) then None
        else if h.id >= Array.length t.cells then None
        else
          match t.cells.(h.id) with
          | None -> None
          | Some c when c.count = 0 -> None
          | Some c ->
            Some
              {
                name = h.name;
                labels = h.labels;
                kind = h.kind;
                stable = is_stable h.kind;
                count = c.count;
                sum = c.sum;
                vmin = c.vmin;
                vmax = c.vmax;
                last = c.last;
                buckets = row_buckets c;
              })
      handles
  in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    rows

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let num f =
  if Float.is_nan f then "nan"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let quantile_suffix r =
  match r.kind with
  | Histogram | Timing ->
    Printf.sprintf " p50=%s p90=%s p99=%s"
      (num (quantile r 0.50))
      (num (quantile r 0.90))
      (num (quantile r 0.99))
  | Counter | Gauge -> ""

let render_stable t =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s%s %s count=%d sum=%s min=%s max=%s last=%s%s\n"
           r.name (label_string r.labels) (kind_to_string r.kind) r.count
           (num r.sum) (num r.vmin) (num r.vmax) (num r.last)
           (quantile_suffix r)))
    (snapshot ~stable_only:true t);
  Buffer.contents b

let row_to_json r =
  let distribution =
    match r.kind with
    | Counter | Gauge -> []
    | Histogram | Timing ->
      [
        ("p50", Json.Float (quantile r 0.50));
        ("p90", Json.Float (quantile r 0.90));
        ("p99", Json.Float (quantile r 0.99));
        ( "buckets",
          Json.List
            (List.map
               (fun (k, n) -> Json.List [ Json.Int k; Json.Int n ])
               r.buckets) );
      ]
  in
  Json.Obj
    ([
       ("name", Json.String r.name);
       ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.labels));
       ("kind", Json.String (kind_to_string r.kind));
       ("count", Json.Int r.count);
       ("sum", Json.Float r.sum);
       ("min", Json.Float r.vmin);
       ("max", Json.Float r.vmax);
       ("last", Json.Float r.last);
     ]
    @ distribution)

let to_json t =
  let rows = snapshot t in
  let stable, volatile = List.partition (fun r -> r.stable) rows in
  Json.Obj
    [
      ("schema", Json.String "calm-metrics/v1");
      ("metrics", Json.List (List.map row_to_json stable));
      ("volatile", Json.List (List.map row_to_json volatile));
    ]

let pp_profile ?(redact_timings = false) ppf t =
  let rows = snapshot t in
  let stable, volatile = List.partition (fun r -> r.stable) rows in
  let key r = r.name ^ label_string r.labels in
  let width =
    List.fold_left (fun w r -> max w (String.length (key r))) 24 rows
  in
  let value r =
    match r.kind with
    | Counter -> string_of_int r.count
    | Gauge -> num r.last
    | Histogram | Timing ->
      Printf.sprintf "n=%d sum=%s min=%s max=%s p50=%s p90=%s p99=%s" r.count
        (num r.sum) (num r.vmin) (num r.vmax)
        (num (quantile r 0.50))
        (num (quantile r 0.90))
        (num (quantile r 0.99))
  in
  let redacted r =
    Printf.sprintf "n=%d sum=- min=- max=- p50=- p90=- p99=-" r.count
  in
  Format.fprintf ppf "== profile: stable metrics ==@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-*s %-9s %s@." width (key r)
        (kind_to_string r.kind) (value r))
    stable;
  if volatile <> [] then begin
    Format.fprintf ppf "== profile: timings (schedule-dependent) ==@.";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-*s %-9s %s@." width (key r)
          (kind_to_string r.kind)
          (if redact_timings then redacted r else value r))
      volatile
  end
