(* Tests for guards and the FSM dialect. *)

module Guard = Fsmkit.Guard
module Fsm = Fsmkit.Fsm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- guards ---------------------------------------------------------- *)

let test_guard_parse_basic () =
  check_bool "bare ident" true
    (Guard.parse "ready" = Guard.Test { signal = "ready"; op = Guard.Cne; value = 0 });
  check_bool "eq" true
    (Guard.parse "x==3" = Guard.Test { signal = "x"; op = Guard.Ceq; value = 3 });
  check_bool "le" true
    (Guard.parse "x <= 7" = Guard.Test { signal = "x"; op = Guard.Cle; value = 7 });
  check_bool "empty is true" true (Guard.parse "" = Guard.True);
  check_bool "literal one" true (Guard.parse "1" = Guard.True)

let test_guard_precedence () =
  (* ! binds tighter than &&, && tighter than ||. *)
  let g = Guard.parse "!a && b || c" in
  match g with
  | Guard.Or (Guard.And (Guard.Not _, _), _) -> ()
  | _ -> Alcotest.fail "unexpected parse structure"

let test_guard_parens () =
  let g = Guard.parse "a && (b || c)" in
  match g with
  | Guard.And (_, Guard.Or (_, _)) -> ()
  | _ -> Alcotest.fail "parens not honoured"

let test_guard_errors () =
  let fails s = try ignore (Guard.parse s); false with Failure _ -> true in
  check_bool "dangling op" true (fails "a &&");
  check_bool "missing paren" true (fails "(a");
  check_bool "cmp without value" true (fails "a ==");
  check_bool "garbage char" true (fails "a @ b")

let test_guard_eval () =
  let lookup = function "a" -> 1 | "b" -> 0 | "x" -> 5 | _ -> 0 in
  let t s = Guard.eval (Guard.parse s) lookup in
  check_bool "bare true" true (t "a");
  check_bool "bare false" false (t "b");
  check_bool "not" true (t "!b");
  check_bool "and" false (t "a && b");
  check_bool "or" true (t "a || b");
  check_bool "lt" true (t "x<6");
  check_bool "ge" true (t "x>=5");
  check_bool "ne" true (t "x!=4");
  check_bool "complex" true (t "(a || b) && x==5")

let test_guard_signals () =
  Alcotest.(check (list string))
    "collected sorted unique" [ "a"; "b"; "x" ]
    (Guard.signals (Guard.parse "a && (b || a) && x==2"))

let prop_guard_roundtrip =
  let gen =
    QCheck2.Gen.(
      sized @@ fix (fun self n ->
          if n = 0 then
            map2
              (fun s (op, v) -> Guard.Test { signal = s; op; value = v })
              (oneofl [ "a"; "b"; "st0"; "flag" ])
              (pair
                 (oneofl Guard.[ Ceq; Cne; Clt; Cle; Cgt; Cge ])
                 (int_range 0 20))
          else
            oneof
              [
                map (fun g -> Guard.Not g) (self (n / 2));
                map2 (fun a b -> Guard.And (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> Guard.Or (a, b)) (self (n / 2)) (self (n / 2));
              ]))
  in
  QCheck2.Test.make ~name:"guard print/parse round-trip" ~count:300 gen
    (fun g -> Guard.equal g (Guard.parse (Guard.to_string g)))

let prop_guard_eval_stable =
  QCheck2.Test.make ~name:"eval unchanged by print/parse" ~count:200
    QCheck2.Gen.(pair (int_range 0 10) (int_range 0 10))
    (fun (a, b) ->
      let g = Guard.parse "a==3 && b<5 || !(a>7)" in
      let lookup = function "a" -> a | "b" -> b | _ -> 0 in
      Guard.eval g lookup = Guard.eval (Guard.parse (Guard.to_string g)) lookup)

(* --- FSM ------------------------------------------------------------- *)

let sample_fsm () =
  {
    Fsm.fsm_name = "ctl";
    inputs = [ { Fsm.io_name = "lt"; io_width = 1; default = 0 } ];
    outputs =
      [
        { Fsm.io_name = "en"; io_width = 1; default = 0 };
        { Fsm.io_name = "sel"; io_width = 2; default = 0 };
      ];
    initial = "s0";
    states =
      [
        {
          Fsm.sname = "s0";
          is_done = false;
          settings = [ ("en", 1); ("sel", 2) ];
          transitions =
            [
              { Fsm.guard = Guard.parse "lt==1"; target = "s0" };
              { Fsm.guard = Guard.True; target = "halt" };
            ];
        };
        { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] };
      ];
  }

let test_fsm_valid () =
  check_bool "no diagnostics" true (Fsm.check_diags (sample_fsm ()) = [])

let test_fsm_accessors () =
  let fsm = sample_fsm () in
  check_int "states" 2 (Fsm.state_count fsm);
  Alcotest.(check (list string)) "done states" [ "halt" ] (Fsm.done_states fsm);
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  check_int "explicit setting" 1 (Fsm.output_in_state fsm s0 "en");
  let halt = Option.get (Fsm.find_state fsm "halt") in
  check_int "default setting" 0 (Fsm.output_in_state fsm halt "en")

let test_fsm_xml_roundtrip () =
  let fsm = sample_fsm () in
  let fsm' =
    Fsm.of_xml (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Fsm.to_xml fsm)))
  in
  check_bool "round trip" true (fsm = fsm')

let has_error fsm fragment =
  List.exists
    (fun e ->
      let n = String.length fragment and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = fragment || go (i + 1)) in
      n = 0 || go 0)
    (List.map Diag.to_message (Fsm.check_diags fsm))

let test_fsm_bad_initial () =
  let fsm = { (sample_fsm ()) with Fsm.initial = "nope" } in
  check_bool "bad initial" true (has_error fsm "initial state")

let test_fsm_bad_target () =
  let fsm = sample_fsm () in
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  let s0 =
    { s0 with Fsm.transitions = [ { Fsm.guard = Guard.True; target = "zz" } ] }
  in
  let fsm =
    { fsm with Fsm.states = [ s0; List.nth fsm.Fsm.states 1 ] }
  in
  check_bool "unknown target" true (has_error fsm "unknown state")

let test_fsm_undeclared_output () =
  let fsm = sample_fsm () in
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  let s0 = { s0 with Fsm.settings = [ ("ghost", 1) ] } in
  let fsm = { fsm with Fsm.states = [ s0; List.nth fsm.Fsm.states 1 ] } in
  check_bool "undeclared output" true (has_error fsm "undeclared output")

let test_fsm_value_too_wide () =
  let fsm = sample_fsm () in
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  let s0 = { s0 with Fsm.settings = [ ("sel", 9) ] } in
  let fsm = { fsm with Fsm.states = [ s0; List.nth fsm.Fsm.states 1 ] } in
  check_bool "value too wide" true (has_error fsm "does not fit")

let test_fsm_guard_undeclared_input () =
  let fsm = sample_fsm () in
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  let s0 =
    {
      s0 with
      Fsm.transitions = [ { Fsm.guard = Guard.parse "mystery"; target = "halt" } ];
    }
  in
  let fsm = { fsm with Fsm.states = [ s0; List.nth fsm.Fsm.states 1 ] } in
  check_bool "undeclared guard input" true (has_error fsm "undeclared input")

let test_fsm_done_unreachable () =
  let fsm = sample_fsm () in
  let s0 = Option.get (Fsm.find_state fsm "s0") in
  let s0 =
    { s0 with Fsm.transitions = [ { Fsm.guard = Guard.True; target = "s0" } ] }
  in
  let fsm = { fsm with Fsm.states = [ s0; List.nth fsm.Fsm.states 1 ] } in
  check_bool "done unreachable" true (has_error fsm "reachable")

let test_fsm_xml_guard_attribute () =
  (* The [on] attribute is omitted for unconditional transitions. *)
  let xml = Xmlkit.Xml.to_string (Fsm.to_xml (sample_fsm ())) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "guarded has on" true (contains "on=\"lt==1\"" xml);
  check_bool "unconditional has no on" true (contains "<next to=\"halt\"/>" xml)

let test_fsm_load_save () =
  let fsm = sample_fsm () in
  let path = Filename.temp_file "fsm" ".xml" in
  Fsm.save path fsm;
  let fsm' = Fsm.load path in
  Sys.remove path;
  check_bool "file round trip" true (fsm = fsm');
  check_str "name preserved" "ctl" fsm'.Fsm.fsm_name

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  [
    ("guard parse basics", `Quick, test_guard_parse_basic);
    ("guard precedence", `Quick, test_guard_precedence);
    ("guard parens", `Quick, test_guard_parens);
    ("guard errors", `Quick, test_guard_errors);
    ("guard eval", `Quick, test_guard_eval);
    ("guard signals", `Quick, test_guard_signals);
    qc prop_guard_roundtrip;
    qc prop_guard_eval_stable;
    ("fsm valid", `Quick, test_fsm_valid);
    ("fsm accessors", `Quick, test_fsm_accessors);
    ("fsm xml round trip", `Quick, test_fsm_xml_roundtrip);
    ("fsm bad initial", `Quick, test_fsm_bad_initial);
    ("fsm bad target", `Quick, test_fsm_bad_target);
    ("fsm undeclared output", `Quick, test_fsm_undeclared_output);
    ("fsm value too wide", `Quick, test_fsm_value_too_wide);
    ("fsm guard undeclared input", `Quick, test_fsm_guard_undeclared_input);
    ("fsm done unreachable", `Quick, test_fsm_done_unreachable);
    ("fsm guard attribute shape", `Quick, test_fsm_xml_guard_attribute);
    ("fsm load/save", `Quick, test_fsm_load_save);
  ]
