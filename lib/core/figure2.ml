type relation =
  | Equal
  | Strictly_included
  | Included

type claim = {
  lhs : string;
  relation : relation;
  rhs : string;
  provenance : string;
  evidence : string list;
}

let claim lhs relation rhs provenance evidence =
  { lhs; relation; rhs; provenance; evidence }

let claims =
  [
    (* Datalog fragments into monotonicity classes (left column). *)
    claim "Datalog(!=)" Strictly_included "M" "folklore" [ "E1" ];
    claim "SP-Datalog" Strictly_included "Mdistinct" "[6]" [ "E1"; "E7" ];
    claim "semicon-Datalog^neg" Strictly_included "Mdisjoint" "this paper (Thm 5.3)"
      [ "E12" ];
    (* wILOG fragments capture the classes exactly. *)
    claim "wILOG(!=)" Equal "M" "[18]" [ "E16" ];
    claim "SP-wILOG" Equal "Mdistinct" "[18]" [ "E16" ];
    claim "semicon-wILOG^neg" Equal "Mdisjoint" "this paper (Thm 5.4)" [ "E16" ];
    (* The monotonicity hierarchy. *)
    claim "M" Strictly_included "Mdistinct" "this paper (Thm 3.1)"
      [ "E1"; "E3"; "E4"; "E21" ];
    claim "Mdistinct" Strictly_included "Mdisjoint" "this paper (Thm 3.1)"
      [ "E1" ];
    claim "Mdisjoint" Strictly_included "C" "this paper (Thm 3.1)" [ "E1" ];
    claim "Mdistinct" Equal "E (preserved under extensions)"
      "this paper (Lemma 3.2)" [ "E6" ];
    (* Coordination-free transducer classes. *)
    claim "M" Equal "F0" "[13]" [ "E10" ];
    claim "M" Equal "A0" "[13]" [ "E9" ];
    claim "Mdistinct" Equal "F1" "this paper (Thm 4.3)" [ "E7"; "E10" ];
    claim "Mdistinct" Equal "A1" "this paper (Thm 4.5)" [ "E9" ];
    claim "Mdisjoint" Equal "F2" "this paper (Thm 4.4)" [ "E8"; "E10" ];
    claim "Mdisjoint" Equal "A2" "this paper (Thm 4.5)" [ "E9" ];
    claim "F0" Strictly_included "F1" "[32]" [ "E10"; "E19" ];
    claim "F1" Strictly_included "F2" "[32]" [ "E10"; "E19" ];
  ]

let relation_to_string = function
  | Equal -> "="
  | Strictly_included -> "c" (* proper subset *)
  | Included -> "<="

let render () =
  let t =
    Report.create ~title:"Figure 2 (paper summary), with experiment evidence"
      ~columns:[ "lhs"; "rel"; "rhs"; "provenance"; "experiments" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [
          c.lhs;
          relation_to_string c.relation;
          c.rhs;
          c.provenance;
          String.concat " " c.evidence;
        ])
    claims;
  Report.render t
