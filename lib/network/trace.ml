open Relational

type event = {
  index : int;
  node : Value.t;
  lamport : int;
  vector : (Value.t * int) list;
  origins : (Fact.t * int) list;
  delivered : Fact.t list;
  sent : Fact.t list;
  output_delta : Fact.t list;
  (* Fault annotations, at their defaults (1 / false / []) on
     failure-free transitions. They are what makes faulty traces
     replayable: Provenance.replay duplicates the sends [dup]-fold,
     wipes the node's state on [restart], and re-injects [injected] into
     its buffer before the transition. *)
  dup : int;
  restart : bool;
  injected : Fact.t list;
}

let stamp e =
  { Causal.lamport = e.lamport; vector = e.vector; origins = e.origins }

type collector = event list ref

let collector () = ref []

(* The JSON fields of an event, shared by the causal document and the
   sweep's JSONL export. *)
let json_fields e =
  let facts fs = Observe.Json.List (List.map (fun f -> Observe.Json.String (Fact.to_string f)) fs) in
  [
    ("index", Observe.Json.Int e.index);
    ("node", Observe.Json.String (Value.to_string e.node));
    ("lamport", Observe.Json.Int e.lamport);
    ( "vector",
      Observe.Json.Obj
        (List.map
           (fun (n, k) -> (Value.to_string n, Observe.Json.Int k))
           e.vector) );
    ( "origins",
      Observe.Json.List
        (List.map
           (fun (f, idx) ->
             Observe.Json.List
               [ Observe.Json.String (Fact.to_string f); Observe.Json.Int idx ])
           e.origins) );
    ("delivered", facts e.delivered);
    ("sent", facts e.sent);
    ("output_delta", facts e.output_delta);
  ]
  (* Fault fields only when non-default, so failure-free exports are
     byte-identical to pre-fault ones. *)
  @ (if e.dup <> 1 then [ ("dup", Observe.Json.Int e.dup) ] else [])
  @ (if e.restart then [ ("restart", Observe.Json.Bool true) ] else [])
  @ if e.injected <> [] then [ ("injected", facts e.injected) ] else []

let record c e = c := e :: !c

let events c = List.rev !c

let outputs_timeline c =
  List.concat_map
    (fun e -> List.map (fun f -> (e.index, f)) e.output_delta)
    (events c)

(* A linear extension of happens-before that is independent of the
   schedule interleaving actually observed: Lamport clocks respect
   happens-before, and events sharing a Lamport value are pairwise
   concurrent, so (lamport, node, index) is a total order refining the
   causal one with a stable tie-break. *)
let canonical evs =
  List.stable_sort
    (fun a b ->
      let c = compare a.lamport b.lamport in
      if c <> 0 then c
      else
        let c = Value.compare a.node b.node in
        if c <> 0 then c else compare a.index b.index)
    evs

(* Deterministic multi-cell export: cells sorted by label, each cell's
   events in canonical causal order, so the bytes depend only on the
   cells' contents — not on the pool scheduling that produced them. The
   lines are built as they are read, so a writer holds one at a time. *)
let sweep_jsonl cells =
  List.sort (fun (a, _) (b, _) -> String.compare a b) cells
  |> List.to_seq
  |> Seq.flat_map (fun (label, evs) ->
         List.to_seq (canonical evs)
         |> Seq.map (fun e ->
                Observe.Json.to_string
                  (Observe.Json.Obj
                     (("cell", Observe.Json.String label) :: json_fields e))
                ^ "\n"))

(* ------------------------------------------------------------------ *)
(* calm-causal/v1 *)

let causal_schema = "calm-causal/v1"

let to_causal_json ~network evs =
  Observe.Json.to_string
    (Observe.Json.Obj
       [
         ("schema", Observe.Json.String causal_schema);
         ( "network",
           Observe.Json.List
             (List.map
                (fun n -> Observe.Json.String (Value.to_string n))
                network) );
         ( "events",
           Observe.Json.List
             (List.map
                (fun e -> Observe.Json.Obj (json_fields e))
                (canonical evs)) );
       ])

(* ------------------------------------------------------------------ *)
(* Happens-before DAG exporters *)

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot evs =
  let evs = List.sort (fun a b -> compare a.index b.index) evs in
  let nodes =
    List.sort_uniq Value.compare (List.map (fun e -> e.node) evs)
  in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph happens_before {\n";
  pr "  rankdir=LR;\n";
  pr "  node [shape=box, fontsize=10];\n";
  List.iteri
    (fun i n ->
      pr "  subgraph cluster_%d {\n" i;
      pr "    label=\"node %s\";\n" (dot_escape (Value.to_string n));
      List.iter
        (fun e ->
          if Value.equal e.node n then begin
            let label =
              Printf.sprintf "#%d L%d" e.index e.lamport
              ^ String.concat ""
                  (List.map
                     (fun f -> "\\nOUT " ^ dot_escape (Fact.to_string f))
                     e.output_delta)
            in
            pr "    e%d [label=\"%s\"];\n" e.index label
          end)
        evs;
      pr "  }\n")
    nodes;
  (* Program order: consecutive events of the same node. *)
  List.iter
    (fun n ->
      let own = List.filter (fun e -> Value.equal e.node n) evs in
      let rec edges = function
        | a :: (b :: _ as rest) ->
          pr "  e%d -> e%d [weight=10];\n" a.index b.index;
          edges rest
        | _ -> ()
      in
      edges own)
    nodes;
  (* Message order: one dashed edge per (send event, receive event) pair,
     labeled with the delivered facts. *)
  List.iter
    (fun e ->
      let by_src =
        List.fold_left
          (fun acc (f, idx) ->
            let prev = try List.assoc idx acc with Not_found -> [] in
            (idx, f :: prev) :: List.remove_assoc idx acc)
          [] e.origins
      in
      let by_src = List.sort (fun (a, _) (b, _) -> compare a b) by_src in
      List.iter
        (fun (idx, facts) ->
          let label =
            String.concat ", "
              (List.rev_map (fun f -> dot_escape (Fact.to_string f)) facts)
          in
          pr "  e%d -> e%d [style=dashed, constraint=false, label=\"%s\"];\n"
            idx e.index label)
        by_src)
    evs;
  pr "}\n";
  Buffer.contents buf

(* Chrome trace_event rendering of the happens-before DAG, through the
   sink's envelope: one thread per network node, the Lamport clock as the
   (synthetic) time axis — 1 ms per tick — and flow events ("s"/"f" pairs
   sharing an id) drawing every message delivery as an arrow between
   tracks. *)
let to_chrome_causal ~network evs =
  let open Observe.Json in
  let evs = List.sort (fun a b -> compare a.index b.index) evs in
  let track n = "node " ^ Value.to_string n in
  let tracks = List.map track network in
  let tid n = Observe.Sink.chrome_tid ~tracks (track n) in
  let by_index = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace by_index e.index e) evs;
  let ts e = float_of_int (e.lamport * 1000) in
  let spans =
    List.map
      (fun e ->
        Obj
          [
            ("name", String (Printf.sprintf "#%d" e.index));
            ("ph", String "X");
            ("cat", String "causal");
            ("ts", Float (ts e));
            ("dur", Float 600.);
            ("pid", Int 1);
            ("tid", Int (tid e.node));
            ( "args",
              Obj
                [
                  ("index", Int e.index);
                  ("lamport", Int e.lamport);
                  ( "out",
                    List
                      (List.map
                         (fun f -> String (Fact.to_string f))
                         e.output_delta) );
                ] );
          ])
      evs
  in
  let next_id = ref 0 in
  let flows =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun (f, idx) ->
            match Hashtbl.find_opt by_index idx with
            | None -> []
            | Some src ->
              incr next_id;
              let id = !next_id in
              let common name =
                [
                  ("name", String name);
                  ("cat", String "msg");
                  ("id", Int id);
                  ("pid", Int 1);
                ]
              in
              [
                Obj
                  (("ph", String "s")
                  :: ("tid", Int (tid src.node))
                  :: ("ts", Float (ts src +. 300.))
                  :: common (Fact.to_string f));
                Obj
                  (("ph", String "f")
                  :: ("bp", String "e")
                  :: ("tid", Int (tid e.node))
                  :: ("ts", Float (ts e +. 300.))
                  :: common (Fact.to_string f));
              ])
          e.origins)
      evs
  in
  Observe.Sink.chrome_document ~tracks (spans @ flows)

(* ------------------------------------------------------------------ *)

let pp_facts ppf facts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Fact.pp ppf facts

let pp_event ppf e =
  Format.fprintf ppf "@[<v 2>#%d @ node %a:" e.index Value.pp e.node;
  if e.delivered <> [] then
    Format.fprintf ppf "@ recv  %a" pp_facts e.delivered;
  if e.sent <> [] then Format.fprintf ppf "@ send  %a" pp_facts e.sent;
  if e.output_delta <> [] then
    Format.fprintf ppf "@ OUT   %a" pp_facts e.output_delta;
  Format.fprintf ppf "@]"

let pp_summary ?(limit = 20) ppf c =
  let interesting =
    List.filter
      (fun e -> e.delivered <> [] || e.sent <> [] || e.output_delta <> [])
      (events c)
  in
  let shown = List.filteri (fun i _ -> i < limit) interesting in
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) shown;
  let rest = List.length interesting - List.length shown in
  if rest > 0 then Format.fprintf ppf "... and %d more events@." rest
