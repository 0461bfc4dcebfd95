open Datalog
module Span = Ast.Span

(* The rule-based lint engine. Each rule emits structured diagnostics
   (stable CALM codes, spans, notes, fix-its); see Diagnostic.codes for
   the registry. Works on located programs so ill-formed rules are
   reported instead of rejected. *)

type options = {
  claim : Fragment.t option;
      (** fragment the program is claimed to inhabit; failures to meet the
          claim are errors (CALM004/005/006/013) *)
  edb : string list;  (** predicates declared extensional *)
  outputs : string list;  (** output relations; [] = unknown *)
}

let default_options = { claim = None; edb = []; outputs = [] }

let claim_of_string = function
  | "datalog" | "positive" -> Some Fragment.Positive
  | "ineq" -> Some Fragment.Positive_ineq
  | "sp" -> Some Fragment.Semi_positive
  | "con" -> Some Fragment.Connected_stratified
  | "semicon" -> Some Fragment.Semi_connected_stratified
  | "stratified" -> Some Fragment.Stratified
  | _ -> None

let claim_to_string = function
  | Fragment.Positive -> "datalog"
  | Fragment.Positive_ineq -> "ineq"
  | Fragment.Semi_positive -> "sp"
  | Fragment.Connected_stratified -> "con"
  | Fragment.Semi_connected_stratified -> "semicon"
  | Fragment.Stratified | Fragment.Unstratifiable -> "stratified"

(* In-file configuration: a comment line of the shape
     % calm-lint: claim=sp outputs=O,T edb=E,Move
   merged over the caller's options (the pragma wins). *)
let pragma_options ~options src =
  let apply opts line =
    let line = String.trim line in
    let marker = "calm-lint:" in
    match String.index_opt line '%' with
    | Some 0 ->
      let body = String.sub line 1 (String.length line - 1) |> String.trim in
      if String.length body >= String.length marker
         && String.sub body 0 (String.length marker) = marker
      then begin
        let args =
          String.sub body (String.length marker)
            (String.length body - String.length marker)
          |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        List.fold_left
          (fun opts arg ->
            match String.index_opt arg '=' with
            | None -> opts
            | Some i ->
              let key = String.sub arg 0 i in
              let value =
                String.sub arg (i + 1) (String.length arg - i - 1)
              in
              let split v = String.split_on_char ',' v |> List.filter (( <> ) "") in
              (match key with
              | "claim" -> { opts with claim = claim_of_string value }
              | "outputs" -> { opts with outputs = split value }
              | "edb" -> { opts with edb = split value }
              | _ -> opts))
          opts args
      end
      else opts
    | _ -> opts
  in
  List.fold_left apply options (String.split_on_char '\n' src)

(* ------------------------------------------------------------------ *)

let claim_satisfied claim p =
  match claim with
  | Fragment.Positive -> Fragment.is_positive p
  | Fragment.Positive_ineq -> Fragment.is_positive_with_ineq p
  | Fragment.Semi_positive -> Fragment.is_semi_positive p
  | Fragment.Connected_stratified -> Connectivity.is_connected_program p
  | Fragment.Semi_connected_stratified -> Connectivity.is_semi_connected p
  | Fragment.Stratified -> Stratify.is_stratifiable p
  | Fragment.Unstratifiable -> not (Stratify.is_stratifiable p)

(* Alpha-canonical form: variables renamed to _v0, _v1, ... in order of
   first occurrence across head, pos, neg, ineq. Two alpha-equivalent
   rules have equal canonical forms. *)
let canonicalize (r : Ast.rule) =
  let tbl = Hashtbl.create 8 in
  let rename v =
    match Hashtbl.find_opt tbl v with
    | Some v' -> v'
    | None ->
      let v' = Printf.sprintf "_v%d" (Hashtbl.length tbl) in
      Hashtbl.replace tbl v v';
      v'
  in
  let term = function Ast.Var v -> Ast.Var (rename v) | c -> c in
  let atom (a : Ast.atom) = { a with Ast.terms = List.map term a.terms } in
  {
    Ast.head = atom r.head;
    pos = List.map atom r.pos;
    neg = List.map atom r.neg;
    ineq = List.map (fun (a, b) -> (term a, term b)) r.ineq;
  }

let subset_atoms xs ys = List.for_all (fun a -> List.exists (Ast.equal_atom a) ys) xs

let subset_ineqs xs ys =
  List.for_all
    (fun (a, b) ->
      List.exists (fun (c, d) -> Ast.equal_term a c && Ast.equal_term b d) ys)
    xs

(* Span of the first body literal (or head) mentioning variable [v]. *)
let span_of_var (lr : Ast.located_rule) v =
  let in_head = List.mem v (Ast.vars_of_atom lr.lhead.value) in
  if in_head then lr.lhead.span
  else
    let hit =
      List.find_opt
        (fun lit ->
          match lit with
          | Ast.Lpos a | Ast.Lneg a -> List.mem v (Ast.vars_of_atom a.value)
          | Ast.Lineq { value = (a, b); _ } ->
            List.mem v (Ast.vars_of_term a @ Ast.vars_of_term b))
        lr.lbody
    in
    match hit with
    | Some (Ast.Lpos a) | Some (Ast.Lneg a) -> a.span
    | Some (Ast.Lineq i) -> i.span
    | None -> lr.lspan

let severity_if cond = if cond then Diagnostic.Error else Diagnostic.Warning

(* ------------------------------------------------------------------ *)
(* The engine *)

let lint_program ?(options = default_options) (lp : Ast.located_program) =
  let p = Ast.strip lp in
  let ilp = List.mapi (fun i lr -> (i, lr)) lp in
  let ip = List.mapi (fun i r -> (i, r)) p in
  let heads = List.map (fun (r : Ast.rule) -> r.Ast.head.pred) p in
  let is_idb q = List.mem q heads in
  let head_span_of q =
    List.find_map
      (fun (lr : Ast.located_rule) ->
        if lr.lhead.value.Ast.pred = q then Some lr.lhead.span else None)
      lp
  in
  let diags = ref [] in
  let emit ?notes ?fixits ~code ~severity ~span message =
    diags := Diagnostic.make ?notes ?fixits ~code ~severity ~span message :: !diags
  in

  (* -- per-rule checks -------------------------------------------- *)
  List.iter
    (fun (i, (lr : Ast.located_rule)) ->
      let r = List.assoc i ip in
      (* CALM012: no positive literal at all *)
      if r.Ast.pos = [] then
        emit ~code:"CALM012" ~severity:Diagnostic.Error ~span:lr.lhead.span
          (Printf.sprintf
             "rule for %s has no positive body literal; range restriction \
              cannot hold"
             r.Ast.head.pred)
      else begin
        (* CALM001: unsafe variables (head, negation, inequality) *)
        let bound = List.concat_map Ast.vars_of_atom r.Ast.pos in
        List.iter
          (fun v ->
            if not (List.mem v bound) then
              emit ~code:"CALM001" ~severity:Diagnostic.Error
                ~span:(span_of_var lr v)
                (Printf.sprintf
                   "variable %s is not bound by a positive body atom" v))
          (Ast.vars_of_rule r)
      end;
      (* CALM002: invention slots in body literals *)
      List.iter
        (fun lit ->
          let flag (a : Ast.atom Ast.located) negated =
            if a.value.Ast.invents then
              emit ~code:"CALM002" ~severity:Diagnostic.Error ~span:a.span
                ~fixits:
                  [
                    {
                      Diagnostic.fix_span = a.span;
                      replacement =
                        (let plain =
                           Format.asprintf "%a" Ast.pp_atom
                             { a.value with Ast.invents = false }
                         in
                         if negated then "not " ^ plain else plain);
                    };
                  ]
                (Printf.sprintf
                   "invention slot in a body literal of %s; '*' invents \
                    values only in rule heads"
                   a.value.Ast.pred)
          in
          match lit with
          | Ast.Lpos a -> flag a false
          | Ast.Lneg a -> flag a true
          | Ast.Lineq _ -> ())
        lr.lbody;
      (* CALM009: reserved or declared-extensional predicate as head *)
      let hp = lr.lhead.value.Ast.pred in
      if hp = Adom.predicate then
        emit ~code:"CALM009" ~severity:Diagnostic.Error ~span:lr.lhead.span
          (Printf.sprintf
             "%s is the reserved active-domain predicate and cannot head a \
              rule"
             Adom.predicate)
      else if List.mem hp options.edb then
        emit ~code:"CALM009" ~severity:Diagnostic.Error ~span:lr.lhead.span
          (Printf.sprintf
             "predicate %s is declared extensional but appears as a rule head"
             hp))
    ilp;

  (* -- CALM007: duplicate / subsumed rules -------------------------- *)
  let canon = Array.of_list (List.map (fun (_, r) -> canonicalize r) ip) in
  let n = Array.length canon in
  (* ci subsumes cj when (after shared canonicalization) the heads agree
     and ci's body literals are among cj's: the variable renaming
     canon_j⁻¹ ∘ canon_i then witnesses classical subsumption, so rule j
     can never fire without rule i deriving the same head fact. *)
  let body_subset ci cj =
    Ast.equal_atom ci.Ast.head cj.Ast.head
    && subset_atoms ci.Ast.pos cj.Ast.pos
    && subset_atoms ci.Ast.neg cj.Ast.neg
    && subset_ineqs ci.Ast.ineq cj.Ast.ineq
  in
  for j = 0 to n - 1 do
    let cj = canon.(j) in
    let lrj = List.nth lp j in
    let found = ref false in
    for i = 0 to n - 1 do
      if (not !found) && i <> j then begin
        let ci = canon.(i) in
        let dup = body_subset ci cj && body_subset cj ci in
        if dup && i < j then begin
          found := true;
          emit ~code:"CALM007" ~severity:Diagnostic.Warning
            ~span:lrj.Ast.lspan
            ~notes:
              [
                Diagnostic.note ~span:(List.nth lp i).Ast.lspan
                  (Printf.sprintf "first occurrence (rule %d)" (i + 1));
              ]
            (Printf.sprintf "rule duplicates rule %d" (i + 1))
        end
        else if (not dup) && body_subset ci cj then begin
          found := true;
          emit ~code:"CALM007" ~severity:Diagnostic.Warning
            ~span:lrj.Ast.lspan
            ~notes:
              [
                Diagnostic.note ~span:(List.nth lp i).Ast.lspan
                  (Printf.sprintf "subsuming rule %d" (i + 1));
              ]
            (Printf.sprintf
               "rule is subsumed by rule %d (same head, its body is a \
                subset of this one)"
               (i + 1))
        end
      end
    done
  done;

  (* -- CALM011: arity conflicts ------------------------------------- *)
  let arity_conflicts = Ast.arity_conflicts lp in
  List.iter
    (fun (span, message, (ar0, span0)) ->
      emit ~code:"CALM011" ~severity:Diagnostic.Error ~span
        ~notes:
          [
            Diagnostic.note ~span:span0
              (Printf.sprintf "first used with arity %d here" ar0);
          ]
        message)
    arity_conflicts;

  (* The semantic passes need a consistent schema. *)
  if arity_conflicts = [] then begin
    let edb = Ast.edb p in
    let stratifiable = Stratify.is_stratifiable p in
    let semicon = Connectivity.is_semi_connected p in

    (* -- CALM003: unstratifiable, with the cycle as witness -------- *)
    if not stratifiable then begin
      match Certificate.find_negative_cycle p with
      | Some cycle ->
        let render =
          String.concat " -> "
            (List.map
               (fun (s : Certificate.cycle_step) ->
                 if s.via_negation then "not " ^ s.step_pred else s.step_pred)
               cycle)
        in
        let k = List.length cycle in
        (* Anchor on a negative step's literal. *)
        let anchor =
          List.mapi (fun j s -> (j, s)) cycle
          |> List.find_map (fun (j, (s : Certificate.cycle_step)) ->
                 if not s.Certificate.via_negation then None
                 else
                   let prev =
                     (List.nth cycle ((j + k - 1) mod k)).Certificate.step_pred
                   in
                   let r = List.nth p s.step_rule in
                   let lr = List.nth lp s.step_rule in
                   List.mapi (fun jj (a : Ast.atom) -> (jj, a)) r.Ast.neg
                   |> List.find_map (fun (jj, (a : Ast.atom)) ->
                          if a.pred = prev then Some (Ast.neg_span lr jj)
                          else None))
        in
        let notes =
          List.map
            (fun (s : Certificate.cycle_step) ->
              Diagnostic.note
                ~span:(List.nth lp s.step_rule).Ast.lspan
                (Printf.sprintf "%s derived here (rule %d)" s.step_pred
                   (s.step_rule + 1)))
            cycle
        in
        emit ~code:"CALM003" ~severity:Diagnostic.Error
          ~span:(Option.value ~default:Span.dummy anchor)
          ~notes
          (Printf.sprintf
             "program is not syntactically stratifiable: cycle through \
              negation %s -> %s"
             render
             (List.nth cycle (k - 1)).Certificate.step_pred)
      | None ->
        emit ~code:"CALM003" ~severity:Diagnostic.Error ~span:Span.dummy
          "program is not syntactically stratifiable"
    end;

    (* -- CALM004: unconnected rules, with graph+ components -------- *)
    let disconnections =
      List.filter_map
        (fun (i, r) ->
          if Connectivity.rule_is_connected r then None
          else Some (i, Certificate.var_components r))
        ip
    in
    List.iter
      (fun (i, components) ->
        let lr = List.nth lp i in
        emit ~code:"CALM004"
          ~severity:
            (severity_if (options.claim = Some Fragment.Connected_stratified))
          ~span:lr.Ast.lhead.span
          ~notes:
            (List.map
               (fun c ->
                 Diagnostic.note
                   (Printf.sprintf "variable component: {%s}"
                      (String.concat ", " c)))
               components)
          (Printf.sprintf
             "rule is unconnected: graph+ of its positive body has %d \
              variable components"
             (List.length components)))
      disconnections;

    (* -- CALM005: in-set negation breaking semi-connectedness ------ *)
    if stratifiable && disconnections <> [] then begin
      let forced = Connectivity.forced_final_stratum p in
      let forced_note =
        Diagnostic.note
          (Printf.sprintf "forced final stratum: {%s}"
             (String.concat ", " forced))
      in
      let source_note =
        match disconnections with
        | (i, _) :: _ ->
          [
            Diagnostic.note ~span:(List.nth lp i).Ast.lspan
              (Printf.sprintf "forced by this unconnected rule (rule %d)"
                 (i + 1));
          ]
        | [] -> []
      in
      List.iter
        (fun (i, (r : Ast.rule)) ->
          if List.mem r.Ast.head.pred forced then
            List.iteri
              (fun j (a : Ast.atom) ->
                if List.mem a.pred forced then
                  emit ~code:"CALM005"
                    ~severity:
                      (severity_if
                         (options.claim = Some Fragment.Semi_connected_stratified))
                    ~span:(Ast.neg_span (List.nth lp i) j)
                    ~notes:(forced_note :: source_note)
                    (Printf.sprintf
                       "negation of %s inside the forced final stratum \
                        breaks semi-connectedness"
                       a.pred))
              r.Ast.neg)
        ip
    end;

    (* -- CALM006: idb negation under an SP claim ------------------- *)
    if options.claim = Some Fragment.Semi_positive then
      List.iter
        (fun (i, (r : Ast.rule)) ->
          List.iteri
            (fun j (a : Ast.atom) ->
              if is_idb a.pred then
                emit ~code:"CALM006" ~severity:Diagnostic.Error
                  ~span:(Ast.neg_span (List.nth lp i) j)
                  ~notes:
                    (match head_span_of a.pred with
                    | Some sp ->
                      [
                        Diagnostic.note ~span:sp
                          (Printf.sprintf "%s is derived here" a.pred);
                      ]
                    | None -> [])
                  (Printf.sprintf
                     "negation of intensional predicate %s in a program \
                      claimed SP-Datalog"
                     a.pred))
            r.Ast.neg)
        ip;

    (* -- CALM013: claimed fragment not met ------------------------- *)
    (match options.claim with
    | Some claim when not (claim_satisfied claim p) ->
      emit ~code:"CALM013" ~severity:Diagnostic.Error ~span:Span.dummy
        (Printf.sprintf "program claimed %s but certified as %s"
           (Fragment.to_string claim)
           (Fragment.to_string (Fragment.classify p)))
    | _ -> ());

    (* -- CALM008: predicates unused by any output ------------------ *)
    if options.outputs <> [] && List.for_all is_idb options.outputs then begin
      let reachable =
        List.concat_map (fun o -> Stratify.depends_on_trans p o) options.outputs
        @ options.outputs
        |> List.sort_uniq String.compare
      in
      List.iter
        (fun q ->
          if
            (not (List.mem q reachable))
            && q <> Adom.predicate
          then
            match head_span_of q with
            | Some sp ->
              emit ~code:"CALM008" ~severity:Diagnostic.Warning ~span:sp
                (Printf.sprintf
                   "predicate %s does not contribute to any output relation \
                    (%s)"
                   q
                   (String.concat ", " options.outputs))
            | None -> ())
        (List.sort_uniq String.compare heads)
    end;

    (* -- CALM010: points of order ---------------------------------- *)
    List.iter
      (fun (i, (r : Ast.rule)) ->
        List.iteri
          (fun j (a : Ast.atom) ->
            let severity_kind =
              if Relational.Schema.mem edb a.pred then
                Points_of_order.Edb_negation
              else if semicon then Points_of_order.Stratified_negation
              else Points_of_order.Blocking_negation
            in
            let sev, text =
              match severity_kind with
              | Points_of_order.Edb_negation ->
                ( Diagnostic.Info,
                  Printf.sprintf
                    "point of order (edb-negation): absence of %s facts must \
                     be certain; F1 coordination (absence information) \
                     suffices"
                    a.pred )
              | Points_of_order.Stratified_negation ->
                ( Diagnostic.Info,
                  Printf.sprintf
                    "point of order (stratified-negation): component \
                     completeness for %s suffices (F2)"
                    a.pred )
              | Points_of_order.Blocking_negation ->
                ( Diagnostic.Warning,
                  Printf.sprintf
                    "point of order (blocking-negation): negation of %s \
                     requires global coordination"
                    a.pred )
            in
            emit ~code:"CALM010" ~severity:sev
              ~span:(Ast.neg_span (List.nth lp i) j)
              text)
          r.Ast.neg)
      ip
  end;

  Diagnostic.sort !diags

let lint_source ?(options = default_options) src =
  let options = pragma_options ~options src in
  match Parser.parse_program_located src with
  | lp -> lint_program ~options lp
  | exception Parser.Syntax_error { line; col; message } ->
    let span =
      if line = 0 then Span.dummy
      else
        Span.make
          ~start:{ Span.line; col }
          ~stop:{ Span.line; col = col + 1 }
    in
    [ Diagnostic.make ~code:"CALM000" ~severity:Diagnostic.Error ~span message ]
