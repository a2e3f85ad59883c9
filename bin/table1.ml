(* Regenerates the paper's Table I ("Results using the test
   infrastructure"), the compiler design-point ablations over Table I's
   FDCT1 image and, with [--sweep], the Section-3 image-size scaling
   experiment (4,096 / 65,536 / 345,600 pixels).

   Absolute times differ from the paper's Pentium 4 / Hades numbers; the
   claims that must hold are printed and checked at the end: every example
   verifies, simulation is seconds-scale, FDCT2's partitions are each
   smaller than FDCT1, and simulation time grows roughly linearly with
   image size. A failed check exits 1. *)

module Metrics = Testinfra.Metrics
module Verify = Testinfra.Verify
module Compile = Compiler.Compile

let hamming_codewords = 2048

let paper_rows =
  (* example, loJava, loXML FSM, loXML datapath, loJava FSM, operators, sim s *)
  [
    ("FDCT1", "138", "512", "1708", "1175", "169", "6.9");
    ("FDCT2", "138", "258+256", "860+891", "667+606", "90+90", "2.9+2.9");
    ("Hamming", "45", "38", "322", "134", "37", "1.5");
  ]

let print_paper_table () =
  print_endline "Paper Table I (DATE'05, Pentium 4 @ 2.8 GHz, Hades/Java):";
  Printf.printf "  %-8s %-8s %-10s %-14s %-10s %-9s %s\n" "Example" "loJava"
    "loXML FSM" "loXML datapath" "loJava FSM" "Operators" "Sim (s)";
  List.iter
    (fun (a, b, c, d, e, f, g) ->
      Printf.printf "  %-8s %-8s %-10s %-14s %-10s %-9s %s\n" a b c d e f g)
    paper_rows;
  print_newline ()

let usage_error msg =
  Printf.eprintf "error: %s (usage: table1.exe [--sweep [--full]])\n" msg;
  exit 1

let parse_args () =
  let sweep, full =
    Array.fold_left
      (fun (sweep, full) arg ->
        match arg with
        | "--sweep" -> (true, full)
        | "--full" -> (sweep, true)
        | _ -> usage_error (Printf.sprintf "unknown argument %S" arg))
      (false, false)
      (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  in
  if full && not sweep then usage_error "--full needs --sweep";
  (sweep, full)

let fatal fmt = Printf.ksprintf (fun s -> prerr_string ("FATAL: " ^ s); exit 1) fmt

let verify_row ?options ~label ~inits src =
  let outcome = Verify.run_source ?options ~inits src in
  if not outcome.Verify.passed then
    fatal "%s failed functional verification:\n%s" label
      (Testinfra.Report.verification_to_string outcome);
  let row = Metrics.collect ~source:src outcome in
  (outcome, { row with Metrics.example = label })

let shared_options = { Compile.default_options with share_operators = true }

let timed f =
  let started = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. started)

let fmt_counts l = String.concat "+" (List.map string_of_int l)

let fus (c : Compile.t) =
  List.map (fun (p : Compile.partition) -> p.Compile.fu_count) c.Compile.partitions

let sim_seconds row = List.fold_left ( +. ) 0. row.Metrics.sim_seconds

type ablation = {
  label : string;
  fus : int list;  (** Empty where no design is involved. *)
  cycles : int option;
  seconds : float;
}

let ablation_of_row label row =
  {
    label;
    fus = row.Metrics.operators;
    cycles = Some row.Metrics.total_cycles;
    seconds = sim_seconds row;
  }

(* The CPU+fabric handshake: the CPU writes 10..13 into the fabric's
   input memory, starts it, waits for done and loads the sum back. *)
let cosim_sum4 () =
  let compiled =
    Compile.compile (Lang.Parser.parse_string (Workloads.Kernels.sum_source ~n:4))
  in
  let p = List.hd compiled.Compile.partitions in
  let input = Operators.Memory.create ~name:"input" ~width:32 4 in
  let output = Operators.Memory.create ~name:"output" ~width:32 1 in
  let lookup = function
    | "input" -> input
    | "output" -> output
    | m -> invalid_arg m
  in
  let program =
    Cosim.Cpu.
      [|
        Ldi 10; St 0; Addi 1; St 1; Addi 1; St 2; Addi 1; St 3; Start; Wait;
        Ld 16; Halt;
      |]
  in
  let r, seconds =
    timed (fun () ->
        Cosim.Harness.run
          ~accelerator:(p.Compile.datapath, p.Compile.fsm)
          ~program
          ~memory_map:
            [ { Cosim.Cpu.base = 0; memory = "input" };
              { Cosim.Cpu.base = 16; memory = "output" } ]
          ~width:32 ~memories:lookup ())
  in
  if
    not
      (r.Cosim.Harness.cpu_halted && r.Cosim.Harness.accelerator_done
      && Bitvec.to_int r.Cosim.Harness.acc = 10 + 11 + 12 + 13)
  then fatal "cosim CPU+sum4 handshake did not read back the sum\n";
  {
    label = "cosim CPU+sum4 handshake";
    fus = fus compiled;
    cycles = Some r.Cosim.Harness.cycles;
    seconds;
  }

(* The compiler design points on Table I's FDCT1: [plain_run]/[plain]
   are the Table I row itself, not a second run. Returns the shared-FU
   row apart as well, for the sharing note. *)
let ablations ~img ~src ~plain_run ~plain =
  let inits = [ ("input", img) ] in
  let variant label options =
    let _, row = verify_row ~options ~label ~inits src in
    ablation_of_row label row
  in
  let shared = variant "shared FUs" shared_options in
  let optimized =
    variant "optimized" { Compile.default_options with optimize = true }
  in
  let cyclesim =
    let compiled = plain_run.Verify.compiled in
    let p = List.hd compiled.Compile.partitions in
    let lookup, _ = Verify.memory_env compiled.Compile.source ~inits in
    let (cy, status), seconds =
      timed (fun () ->
          let cy = Cyclesim.create ~memories:lookup p.Compile.datapath p.Compile.fsm in
          (cy, Cyclesim.run cy))
    in
    if status <> `Done then fatal "Cyclesim did not finish FDCT1\n";
    {
      label = "Cyclesim, plain design";
      fus = plain.Metrics.operators;
      cycles = Some (Cyclesim.cycles cy);
      seconds;
    }
  in
  let compile label options =
    let c, seconds =
      timed (fun () -> Compile.compile ~options (Lang.Parser.parse_string src))
    in
    { label; fus = fus c; cycles = None; seconds }
  in
  ( shared,
    [
      ablation_of_row "plain (Table I FDCT1)" plain;
      shared;
      optimized;
      cyclesim;
      {
        label = "golden model";
        fus = [];
        cycles = None;
        seconds = plain_run.Verify.golden_seconds;
      };
      compile "compile, plain" Compile.default_options;
      compile "compile, shared" shared_options;
      cosim_sum4 ();
    ] )

let print_ablations ~plain rows =
  print_endline
    "Ablations (FDCT1 over the Table I 64x64 image; one run each; x plain = time";
  print_endline "relative to the plain design's event-driven simulation):";
  let base = sim_seconds plain in
  print_string
    (Metrics.tabulate
       ~header:[ "Ablation"; "FUs"; "Cycles"; "Time (ms)"; "x plain" ]
       (List.map
          (fun a ->
            [
              a.label;
              (if a.fus = [] then "-" else fmt_counts a.fus);
              (match a.cycles with Some c -> string_of_int c | None -> "-");
              Printf.sprintf "%.2f" (a.seconds *. 1e3);
              Printf.sprintf "%.3g" (a.seconds /. base);
            ])
          rows))

let () =
  let sweep, full = parse_args () in
  print_paper_table ();
  let img = Workloads.Fdct.make_image ~width_px:64 ~height_px:64 ~seed:2005 in
  let fdct1_src = Workloads.Fdct.source ~width_px:64 ~height_px:64 () in
  let fdct1_run, fdct1 = verify_row ~label:"FDCT1" ~inits:[ ("input", img) ] fdct1_src in
  let _, fdct2 =
    verify_row ~label:"FDCT2" ~inits:[ ("input", img) ]
      (Workloads.Fdct.source ~partitioned:true ~width_px:64 ~height_px:64 ())
  in
  let _, hamming =
    verify_row ~label:"Hamming"
      ~inits:[ ("input", Workloads.Hamming.make_codewords ~n:hamming_codewords ~seed:2005) ]
      (Workloads.Hamming.source ~n:hamming_codewords)
  in
  print_endline
    "Reproduced Table I (this infrastructure: OCaml event-driven simulator,";
  Printf.printf
    "FDCT over a 64x64 image = 4,096 pixels, Hamming over %d codewords):\n"
    hamming_codewords;
  print_string (Metrics.render_table [ fdct1; fdct2; hamming ]);
  print_newline ();
  (* Shape checks corresponding to the paper's observations. *)
  let fdct1_ops = List.hd fdct1.Metrics.operators in
  let partitions_smaller =
    List.for_all (fun ops -> ops < fdct1_ops) fdct2.Metrics.operators
  in
  let hamming_smaller = List.hd hamming.Metrics.operators * 2 < fdct1_ops in
  let yes_no ok = if ok then "yes" else "NO" in
  Printf.printf "shape: FDCT2 partitions each smaller than FDCT1 ... %s\n"
    (yes_no partitions_smaller);
  Printf.printf "shape: Hamming much smaller than the FDCTs ......... %s\n"
    (yes_no hamming_smaller);
  Printf.printf "shape: whole suite verifies in feasible time ....... %.1fs total\n"
    (sim_seconds fdct1 +. sim_seconds fdct2 +. sim_seconds hamming);
  let shared, ablation_rows =
    ablations ~img ~src:fdct1_src ~plain_run:fdct1_run ~plain:fdct1
  in
  (* Supplementary: operator counts under sharing, for comparison with
     the paper's (presumably shared) binding. FDCT1's comes from the
     shared-FU ablation row. *)
  let shared_fus src =
    fus (Compile.compile ~options:shared_options (Lang.Parser.parse_string src))
  in
  Printf.printf
    "note: with operator sharing (--share) the FU counts become FDCT1=%s, FDCT2=%s,\n"
    (fmt_counts shared.fus)
    (fmt_counts
       (shared_fus (Workloads.Fdct.source ~partitioned:true ~width_px:64 ~height_px:64 ())));
  Printf.printf
    "      Hamming=%s - closer to the paper's 169 / 90+90 / 37, which a sharing\n"
    (fmt_counts (shared_fus (Workloads.Hamming.source ~n:hamming_codewords)));
  print_endline "      binder would produce.";
  print_newline ();
  print_ablations ~plain:fdct1 ablation_rows;
  if sweep then begin
    print_newline ();
    print_endline
      "Image-size sweep (paper Section 3: 4,096 px in 6.9 s; 65,536 px in ~1 min;";
    print_endline "345,600 px in ~6.5 min on 2005 hardware):";
    let sizes =
      [ (64, 64) ] @ [ (256, 256) ] @ (if full then [ (720, 480) ] else [])
    in
    let results =
      List.map
        (fun (w, h) ->
          let img = Workloads.Fdct.make_image ~width_px:w ~height_px:h ~seed:1 in
          let outcome =
            Verify.run_source ~inits:[ ("input", img) ]
              (Workloads.Fdct.source ~width_px:w ~height_px:h ())
          in
          if not outcome.Verify.passed then
            fatal "FDCT1 %dx%d failed verification\n" w h;
          let seconds =
            outcome.Verify.hw_run.Testinfra.Simulate.total_wall_seconds
          in
          Printf.printf "  FDCT1 %4dx%-4d = %7d px: %8.2f s (%d cycles)\n" w h
            (w * h) seconds
            outcome.Verify.hw_run.Testinfra.Simulate.total_cycles;
          (w * h, seconds))
        sizes
    in
    (match results with
    | (px0, s0) :: rest when s0 > 0. ->
        List.iter
          (fun (px, s) ->
            Printf.printf
              "  scaling %7d px vs %d px: data x%.1f, time x%.1f (linear ~ x%.1f)\n"
              px px0
              (float_of_int px /. float_of_int px0)
              (s /. s0)
              (float_of_int px /. float_of_int px0))
          rest
    | _ -> ());
    if not full then
      print_endline "  (run with --sweep --full to include the 720x480 = 345,600 px point)"
  end;
  if not (partitions_smaller && hamming_smaller) then begin
    prerr_endline "error: a Table I shape check failed (see the NO above)";
    exit 1
  end
