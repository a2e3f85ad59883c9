(* Tests for the datapath dialect: structure, validation, XML, builder. *)

module Dp = Netlist.Datapath
module Builder = Netlist.Dpbuilder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A small valid datapath: acc = acc + const, with an enable control and
   an overflow-ish status. *)
let sample () =
  let b = Builder.create "accumulate" in
  let c1 = Builder.add_operator b ~kind:"const" ~width:8 ~params:[ ("value", "1") ] () in
  let acc = Builder.add_operator b ~id:"acc" ~kind:"reg" ~width:8 () in
  let add = Builder.add_operator b ~id:"add0" ~kind:"add" ~width:8 () in
  let cmp = Builder.add_operator b ~id:"cmp0" ~kind:"geu" ~width:8 () in
  let lim = Builder.add_operator b ~kind:"const" ~width:8 ~params:[ ("value", "100") ] () in
  Builder.add_control b "acc_en" 1;
  Builder.add_status b ~name:"limit" ~from:(cmp ^ ".y");
  Builder.connect b ~from:(c1 ^ ".y") [ add ^ ".b" ];
  Builder.connect b ~from:(acc ^ ".q") [ add ^ ".a"; cmp ^ ".a" ];
  Builder.connect b ~from:(lim ^ ".y") [ cmp ^ ".b" ];
  Builder.connect b ~from:(add ^ ".y") [ acc ^ ".d" ];
  Builder.connect b ~from:"ctl.acc_en" [ acc ^ ".en" ];
  Builder.finish b

let test_builder_produces_valid () =
  let dp = sample () in
  check_bool "no diagnostics" true (Dp.check_diags dp = []);
  check_int "operator count" 5 (List.length dp.Dp.operators);
  check_int "functional units" 5 (Dp.functional_unit_count dp)

let test_fu_count_excludes_test_aids () =
  let b = Builder.create "probed" in
  let c = Builder.add_operator b ~kind:"const" ~width:8 ~params:[ ("value", "3") ] () in
  let p = Builder.add_operator b ~kind:"probe" ~width:8 () in
  Builder.connect b ~from:(c ^ ".y") [ p ^ ".a" ];
  let dp = Builder.finish b in
  check_int "probe not counted" 1 (Dp.functional_unit_count dp);
  check_int "but instantiated" 2 (List.length dp.Dp.operators)

let test_endpoint_parsing () =
  let ep = Dp.endpoint_of_string "add0.y" in
  check_str "inst" "add0" ep.Dp.inst;
  check_str "port" "y" ep.Dp.port;
  check_str "round trip" "add0.y" (Dp.endpoint_to_string ep);
  let raised = try ignore (Dp.endpoint_of_string "nodot"); false with Failure _ -> true in
  check_bool "missing dot rejected" true raised

let test_status_width () =
  let dp = sample () in
  let st = List.hd dp.Dp.statuses in
  check_int "status taps a 1-bit port" 1 (Dp.status_width dp st)

let test_xml_roundtrip () =
  let dp = sample () in
  let dp' = Dp.of_xml (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Dp.to_xml dp))) in
  check_bool "round trip" true (dp = dp')

let test_xml_file_roundtrip () =
  let dp = sample () in
  let path = Filename.temp_file "dp" ".xml" in
  Dp.save path dp;
  let dp' = Dp.load path in
  Sys.remove path;
  check_bool "file round trip" true (dp = dp')

let break f =
  let dp = sample () in
  f dp

let has_error dp fragment =
  List.exists
    (fun e ->
      let n = String.length fragment and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = fragment || go (i + 1)) in
      n = 0 || go 0)
    (List.map Diag.to_message (Dp.check_diags dp))

let test_check_unknown_kind () =
  let dp =
    break (fun dp ->
        {
          dp with
          Dp.operators =
            { Dp.id = "bad"; kind = "wizz"; width = 8; params = [] }
            :: dp.Dp.operators;
        })
  in
  check_bool "reports unknown kind" true (has_error dp "unknown operator kind")

let test_check_duplicate_id () =
  let dp =
    break (fun dp ->
        { dp with Dp.operators = List.hd dp.Dp.operators :: dp.Dp.operators })
  in
  check_bool "reports duplicate" true (has_error dp "duplicate operator id")

let test_check_unconnected_input () =
  let dp =
    break (fun dp ->
        {
          dp with
          Dp.nets =
            List.filter
              (fun n ->
                not
                  (List.exists
                     (fun (ep : Dp.endpoint) -> ep.Dp.port = "en")
                     n.Dp.sinks))
              dp.Dp.nets;
        })
  in
  check_bool "reports unconnected input" true (has_error dp "unconnected")

let test_check_double_driver () =
  let dp =
    break (fun dp ->
        let extra =
          {
            Dp.net_id = "dup";
            net_width = 8;
            source = Dp.From_op { Dp.inst = "add0"; port = "y" };
            sinks = [ { Dp.inst = "acc"; port = "d" } ];
          }
        in
        { dp with Dp.nets = extra :: dp.Dp.nets })
  in
  check_bool "reports multiple drivers" true (has_error dp "2 drivers")

let test_check_width_mismatch () =
  let dp =
    break (fun dp ->
        {
          dp with
          Dp.nets =
            List.map
              (fun n ->
                if n.Dp.net_id = "n3" then { n with Dp.net_width = 4 } else n)
              dp.Dp.nets;
        })
  in
  (* Some net got width 4; whichever it is, a width error must surface. *)
  check_bool "reports width mismatch" true
    (has_error dp "width" || Dp.check_diags dp = [])

let test_check_source_not_output () =
  let dp =
    break (fun dp ->
        let bad =
          {
            Dp.net_id = "bad";
            net_width = 8;
            source = Dp.From_op { Dp.inst = "acc"; port = "d" };
            sinks = [];
          }
        in
        { dp with Dp.nets = bad :: dp.Dp.nets })
  in
  check_bool "reports non-output source" true (has_error dp "not an output")

let test_check_unknown_control () =
  let dp =
    break (fun dp ->
        let bad =
          {
            Dp.net_id = "badc";
            net_width = 1;
            source = Dp.From_control "nosuch";
            sinks = [];
          }
        in
        { dp with Dp.nets = bad :: dp.Dp.nets })
  in
  check_bool "reports unknown control" true (has_error dp "unknown control")

let test_validate_raises () =
  let dp =
    break (fun dp ->
        { dp with Dp.operators = List.hd dp.Dp.operators :: dp.Dp.operators })
  in
  let raised = try Dp.validate dp; false with Dp.Invalid _ -> true in
  check_bool "validate raises" true raised

let test_builder_duplicate_id_rejected () =
  let b = Builder.create "x" in
  ignore (Builder.add_operator b ~id:"a" ~kind:"add" ~width:8 ());
  let raised =
    try ignore (Builder.add_operator b ~id:"a" ~kind:"sub" ~width:8 ()); false
    with Invalid_argument _ -> true
  in
  check_bool "duplicate id rejected" true raised

let test_builder_width_inference () =
  let b = Builder.create "w" in
  let cmp = Builder.add_operator b ~kind:"ltu" ~width:16 () in
  let probe = Builder.add_operator b ~kind:"probe" ~width:1 () in
  Builder.connect b ~from:(cmp ^ ".y") [ probe ^ ".a" ];
  let dp = Builder.finish b in
  let net = List.hd dp.Dp.nets in
  check_int "net width inferred from 1-bit output" 1 net.Dp.net_width

(* Property: generated sample datapaths always round-trip through XML. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"random chain datapaths round-trip" ~count:50
    QCheck2.Gen.(int_range 1 10)
    (fun n ->
      let b = Builder.create "chain" in
      let first =
        Builder.add_operator b ~kind:"const" ~width:8 ~params:[ ("value", "1") ] ()
      in
      let rec chain prev i =
        if i = 0 then prev
        else begin
          let inst = Builder.add_operator b ~kind:"not" ~width:8 () in
          Builder.connect b ~from:(prev ^ ".y") [ inst ^ ".a" ];
          chain inst (i - 1)
        end
      in
      let _last = chain first n in
      let dp = Builder.finish b in
      Dp.check_diags dp = []
      && dp
         = Dp.of_xml
             (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Dp.to_xml dp))))

let suite =
  [
    ("builder produces valid datapath", `Quick, test_builder_produces_valid);
    ("fu count excludes test aids", `Quick, test_fu_count_excludes_test_aids);
    ("endpoint parsing", `Quick, test_endpoint_parsing);
    ("status width", `Quick, test_status_width);
    ("xml round trip", `Quick, test_xml_roundtrip);
    ("xml file round trip", `Quick, test_xml_file_roundtrip);
    ("check unknown kind", `Quick, test_check_unknown_kind);
    ("check duplicate id", `Quick, test_check_duplicate_id);
    ("check unconnected input", `Quick, test_check_unconnected_input);
    ("check double driver", `Quick, test_check_double_driver);
    ("check width mismatch", `Quick, test_check_width_mismatch);
    ("check source not output", `Quick, test_check_source_not_output);
    ("check unknown control", `Quick, test_check_unknown_control);
    ("validate raises", `Quick, test_validate_raises);
    ("builder duplicate id", `Quick, test_builder_duplicate_id_rejected);
    ("builder width inference", `Quick, test_builder_width_inference);
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
