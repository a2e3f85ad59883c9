(* Tests for the Reconfiguration Transition Graph dialect. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let two_config () =
  {
    Rtg.rtg_name = "fdct2";
    initial = "p1";
    configurations =
      [
        { Rtg.cfg_name = "p1"; datapath_ref = "p1_dp"; fsm_ref = "p1_fsm" };
        { Rtg.cfg_name = "p2"; datapath_ref = "p2_dp"; fsm_ref = "p2_fsm" };
      ];
    transitions = [ { Rtg.src = "p1"; dst = "p2" } ];
  }

let test_singleton () =
  let rtg = Rtg.singleton ~name:"solo" ~datapath_ref:"dp" ~fsm_ref:"fsm" in
  check_bool "valid" true (Rtg.check_diags rtg = []);
  Alcotest.(check (list string)) "order" [ "solo" ] (Rtg.execution_order rtg);
  check_int "one configuration" 1 (Rtg.configuration_count rtg)

let test_two_config_order () =
  let rtg = two_config () in
  check_bool "valid" true (Rtg.check_diags rtg = []);
  Alcotest.(check (list string)) "order" [ "p1"; "p2" ] (Rtg.execution_order rtg);
  check_bool "successor" true (Rtg.successor rtg "p1" = Some "p2");
  check_bool "final has none" true (Rtg.successor rtg "p2" = None)

let has_error rtg fragment =
  List.exists
    (fun e ->
      let n = String.length fragment and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = fragment || go (i + 1)) in
      n = 0 || go 0)
    (List.map Diag.to_message (Rtg.check_diags rtg))

let test_bad_initial () =
  let rtg = { (two_config ()) with Rtg.initial = "zz" } in
  check_bool "bad initial" true (has_error rtg "initial configuration")

let test_unknown_endpoint () =
  let rtg =
    {
      (two_config ()) with
      Rtg.transitions = [ { Rtg.src = "p1"; dst = "ghost" } ];
    }
  in
  check_bool "unknown destination" true (has_error rtg "unknown configuration")

let test_multiple_outgoing () =
  let rtg =
    {
      (two_config ()) with
      Rtg.transitions =
        [ { Rtg.src = "p1"; dst = "p2" }; { Rtg.src = "p1"; dst = "p1" } ];
    }
  in
  check_bool "several outgoing" true (has_error rtg "several outgoing")

let test_cycle_detected () =
  let rtg =
    {
      (two_config ()) with
      Rtg.transitions =
        [ { Rtg.src = "p1"; dst = "p2" }; { Rtg.src = "p2"; dst = "p1" } ];
    }
  in
  check_bool "cycle" true (has_error rtg "cycle")

let test_unreachable () =
  let rtg = { (two_config ()) with Rtg.transitions = [] } in
  check_bool "unreachable p2" true (has_error rtg "unreachable")

let test_xml_roundtrip () =
  let rtg = two_config () in
  let rtg' =
    Rtg.of_xml
      (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Rtg.to_xml rtg)))
  in
  check_bool "round trip" true (rtg = rtg')

let test_file_roundtrip () =
  let rtg = two_config () in
  let path = Filename.temp_file "rtg" ".xml" in
  Rtg.save path rtg;
  let rtg' = Rtg.load path in
  Sys.remove path;
  check_bool "file round trip" true (rtg = rtg')

let prop_chain_order =
  QCheck2.Test.make ~name:"linear chains execute in order" ~count:50
    QCheck2.Gen.(int_range 1 12)
    (fun n ->
      let names = List.init n (fun i -> Printf.sprintf "c%d" i) in
      let rtg =
        {
          Rtg.rtg_name = "chain";
          initial = "c0";
          configurations =
            List.map
              (fun name ->
                { Rtg.cfg_name = name; datapath_ref = name; fsm_ref = name })
              names;
          transitions =
            (let rec pairs = function
               | a :: (b :: _ as rest) -> { Rtg.src = a; dst = b } :: pairs rest
               | [ _ ] | [] -> []
             in
             pairs names);
        }
      in
      Rtg.check_diags rtg = [] && Rtg.execution_order rtg = names)

let suite =
  [
    ("singleton", `Quick, test_singleton);
    ("two-config order", `Quick, test_two_config_order);
    ("bad initial", `Quick, test_bad_initial);
    ("unknown endpoint", `Quick, test_unknown_endpoint);
    ("multiple outgoing", `Quick, test_multiple_outgoing);
    ("cycle detected", `Quick, test_cycle_detected);
    ("unreachable", `Quick, test_unreachable);
    ("xml round trip", `Quick, test_xml_roundtrip);
    ("file round trip", `Quick, test_file_roundtrip);
    QCheck_alcotest.to_alcotest prop_chain_order;
  ]
