(* The XML dialects are an interchange format, not a compiler detail: this
   example hand-builds a GCD datapath and its controller with the public
   builder API — including the paper's testing aids (a probe on an internal
   connection and a check operator watching the result) — then simulates,
   renders an ASCII waveform, and emits the artifacts.

     dune exec examples/handwritten_design.exe  *)

module Builder = Netlist.Dpbuilder
module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Memory = Operators.Memory

let width = 16

(* io[0], io[1] hold the operands; the design writes gcd to io[2]. *)
let build_datapath ~expected =
  let b = Builder.create "gcd_unit" in
  let reg_a = Builder.add_operator b ~id:"a" ~kind:"reg" ~width () in
  let reg_b = Builder.add_operator b ~id:"b" ~kind:"reg" ~width () in
  let sub_ab = Builder.add_operator b ~id:"sub_ab" ~kind:"sub" ~width () in
  let sub_ba = Builder.add_operator b ~id:"sub_ba" ~kind:"sub" ~width () in
  let gt = Builder.add_operator b ~id:"gt" ~kind:"gtu" ~width () in
  let ne = Builder.add_operator b ~id:"ne" ~kind:"ne" ~width () in
  let io =
    Builder.add_operator b ~id:"io" ~kind:"sram" ~width
      ~params:[ ("memory", "io"); ("addr-width", "2"); ("size", "4") ] ()
  in
  let addr_mux =
    Builder.add_operator b ~id:"addr_mux" ~kind:"mux" ~width:2
      ~params:[ ("inputs", "3") ] ()
  in
  List.iteri
    (fun i v ->
      let c =
        Builder.add_operator b ~id:(Printf.sprintf "addr%d" i) ~kind:"const"
          ~width:2 ~params:[ ("value", string_of_int v) ] ()
      in
      Builder.connect b ~from:(c ^ ".y") [ Printf.sprintf "%s.in%d" addr_mux i ])
    [ 0; 1; 2 ];
  (* Register write muxes: a <- {io.dout, a-b}, b <- {io.dout, b-a}. *)
  let mux_a =
    Builder.add_operator b ~id:"mux_a" ~kind:"mux" ~width
      ~params:[ ("inputs", "2") ] ()
  in
  let mux_b =
    Builder.add_operator b ~id:"mux_b" ~kind:"mux" ~width
      ~params:[ ("inputs", "2") ] ()
  in
  (* Test aids: probe the live value of [a]; check the value stored to
     io[2] against the expected gcd while the store is enabled. *)
  let probe = Builder.add_operator b ~id:"watch_a" ~kind:"probe" ~width () in
  let check =
    Builder.add_operator b ~id:"check_result" ~kind:"check" ~width
      ~params:[ ("value", string_of_int expected) ] ()
  in
  List.iter (fun (name, w) -> Builder.add_control b name w)
    [ ("a_en", 1); ("a_sel", 1); ("b_en", 1); ("b_sel", 1);
      ("asel", 2); ("we", 1) ];
  Builder.add_status b ~name:"gt" ~from:(gt ^ ".y");
  Builder.add_status b ~name:"ne" ~from:(ne ^ ".y");
  Builder.connect b ~from:(reg_a ^ ".q")
    [ sub_ab ^ ".a"; sub_ba ^ ".b"; gt ^ ".a"; ne ^ ".a"; io ^ ".din";
      probe ^ ".a"; check ^ ".a" ];
  Builder.connect b ~from:(reg_b ^ ".q")
    [ sub_ab ^ ".b"; sub_ba ^ ".a"; gt ^ ".b"; ne ^ ".b" ];
  Builder.connect b ~from:(io ^ ".dout") [ mux_a ^ ".in0"; mux_b ^ ".in0" ];
  Builder.connect b ~from:(sub_ab ^ ".y") [ mux_a ^ ".in1" ];
  Builder.connect b ~from:(sub_ba ^ ".y") [ mux_b ^ ".in1" ];
  Builder.connect b ~from:(mux_a ^ ".y") [ reg_a ^ ".d" ];
  Builder.connect b ~from:(mux_b ^ ".y") [ reg_b ^ ".d" ];
  Builder.connect b ~from:(addr_mux ^ ".y") [ io ^ ".addr" ];
  Builder.connect b ~from:"ctl.a_en" [ reg_a ^ ".en" ];
  Builder.connect b ~from:"ctl.a_sel" [ mux_a ^ ".sel" ];
  Builder.connect b ~from:"ctl.b_en" [ reg_b ^ ".en" ];
  Builder.connect b ~from:"ctl.b_sel" [ mux_b ^ ".sel" ];
  Builder.connect b ~from:"ctl.asel" [ addr_mux ^ ".sel" ];
  Builder.connect b ~from:"ctl.we" [ io ^ ".we"; check ^ ".en" ];
  Builder.finish b

let controller =
  let t guard target = { Fsm.guard; target } in
  {
    Fsm.fsm_name = "gcd_ctl";
    inputs =
      [
        { Fsm.io_name = "gt"; io_width = 1; default = 0 };
        { Fsm.io_name = "ne"; io_width = 1; default = 0 };
      ];
    outputs =
      [
        { Fsm.io_name = "a_en"; io_width = 1; default = 0 };
        { Fsm.io_name = "a_sel"; io_width = 1; default = 0 };
        { Fsm.io_name = "b_en"; io_width = 1; default = 0 };
        { Fsm.io_name = "b_sel"; io_width = 1; default = 0 };
        { Fsm.io_name = "asel"; io_width = 2; default = 0 };
        { Fsm.io_name = "we"; io_width = 1; default = 0 };
      ];
    initial = "load_a";
    states =
      [
        { Fsm.sname = "load_a"; is_done = false;
          settings = [ ("asel", 0); ("a_en", 1); ("a_sel", 0) ];
          transitions = [ t Guard.True "load_b" ] };
        { Fsm.sname = "load_b"; is_done = false;
          settings = [ ("asel", 1); ("b_en", 1); ("b_sel", 0) ];
          transitions = [ t Guard.True "test" ] };
        { Fsm.sname = "test"; is_done = false; settings = [];
          transitions =
            [
              t (Guard.parse "ne==0") "store";
              t (Guard.parse "gt==1") "step_a";
              t Guard.True "step_b";
            ] };
        { Fsm.sname = "step_a"; is_done = false;
          settings = [ ("a_en", 1); ("a_sel", 1) ];
          transitions = [ t Guard.True "test" ] };
        { Fsm.sname = "step_b"; is_done = false;
          settings = [ ("b_en", 1); ("b_sel", 1) ];
          transitions = [ t Guard.True "test" ] };
        { Fsm.sname = "store"; is_done = false;
          settings = [ ("asel", 2); ("we", 1) ];
          transitions = [ t Guard.True "halt" ] };
        { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] };
      ];
  }

let () =
  let x = 91 and y = 35 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let expected = gcd x y in
  let datapath = build_datapath ~expected in
  Printf.printf "hand-built datapath: %d operators (%d with test aids), valid: %b\n"
    (Dp.functional_unit_count datapath)
    (List.length datapath.Dp.operators)
    (Dp.check_diags datapath = []);
  Fsm.validate controller;

  let io = Memory.of_list ~name:"io" ~width [ x; y; 0; 0 ] in
  let run =
    Testinfra.Simulate.run_configuration ~memories:(fun _ -> io) datapath
      controller
  in
  Printf.printf "simulated gcd(%d, %d): %s in %d cycles; io[2] = %d (expect %d)\n"
    x y
    (if run.Testinfra.Simulate.completed then "completed" else "INCOMPLETE")
    run.Testinfra.Simulate.cycles
    (Bitvec.to_int (Memory.read io 2))
    expected;
  let check_failures =
    List.filter
      (function
        | Operators.Models.Check_failed _ -> true
        | Operators.Models.Probe_sample _ -> false)
      run.Testinfra.Simulate.notifications
  in
  Printf.printf "check operator fired %d time(s) (0 = result correct)\n"
    (List.length check_failures);

  (* The probe recorded every value [a] took; show the Euclid trace. *)
  let a_samples =
    List.filter_map
      (function
        | Operators.Models.Probe_sample { instance = "watch_a"; time; value } ->
            Some (time, value)
        | Operators.Models.Probe_sample _ | Operators.Models.Check_failed _ ->
            None)
      run.Testinfra.Simulate.notifications
  in
  print_endline "\nwaveform of register a (probe on an internal connection):";
  print_string (Testinfra.Waves.render_samples ~max_events:12 [ ("a", a_samples) ]);

  (* Artifacts from a non-compiler design: same translations apply. *)
  let dir = "handwritten_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Dp.save (Filename.concat dir "gcd_unit.xml") datapath;
  Fsm.save (Filename.concat dir "gcd_ctl.xml") controller;
  Dotkit.Dot.save (Filename.concat dir "gcd_unit.dot")
    (Transform.To_dot.datapath datapath);
  let oc = open_out (Filename.concat dir "gcd_unit.v") in
  output_string oc (Hdl.Verilog.system datapath controller);
  close_out oc;
  Printf.printf "\nartifacts written to %s/ (XML, dot, Verilog)\n" dir;
  exit
    (if run.Testinfra.Simulate.completed
        && Bitvec.to_int (Memory.read io 2) = expected
        && check_failures = []
     then 0
     else 1)
