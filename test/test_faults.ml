(* Tests for the fault model and mutation campaigns: deterministic plans,
   identical semantics of the injection hooks in both simulation kernels,
   and the verifier demonstrably killing every fault class. *)

module Compile = Compiler.Compile
module Fault = Faults.Fault
module Faulty = Operators.Faulty
module Memory = Operators.Memory
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Faultcamp = Testinfra.Faultcamp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bv ~width v = Bitvec.create ~width v

let vecadd_case () =
  match Faultcamp.find_workload "vecadd" with
  | Some c -> c
  | None -> Alcotest.fail "vecadd workload missing"

let compile_workload (c : Testinfra.Suite.case) =
  Compile.compile (Lang.Parser.parse_string c.Testinfra.Suite.source)

(* --- perturbation primitives ------------------------------------------- *)

let test_stuck_at () =
  let v = bv ~width:8 0b1010_1010 in
  check_int "stuck-at-1 bit 0" 0b1010_1011
    (Bitvec.to_int (Faulty.stuck_at ~bit:0 ~value:true v));
  check_int "stuck-at-0 bit 1" 0b1010_1000
    (Bitvec.to_int (Faulty.stuck_at ~bit:1 ~value:false v));
  check_int "stuck-at keeps width" 8
    (Bitvec.width (Faulty.stuck_at ~bit:7 ~value:true v))

let test_bit_flip () =
  let v = bv ~width:8 0b1010_1010 in
  check_int "flip bit 1" 0b1010_1000 (Bitvec.to_int (Faulty.bit_flip ~bit:1 v));
  check_bool "flip twice restores" true
    (Bitvec.equal v (Faulty.bit_flip ~bit:3 (Faulty.bit_flip ~bit:3 v)))

let test_bad_bit_rejected () =
  let v = bv ~width:4 5 in
  let raised f = try ignore (f v); false with Invalid_argument _ -> true in
  check_bool "stuck-at bit 4 of width 4" true
    (raised (Faulty.stuck_at ~bit:4 ~value:true));
  check_bool "flip bit 9 of width 4" true (raised (Faulty.bit_flip ~bit:9))

(* --- plan generation ---------------------------------------------------- *)

let test_plan_deterministic () =
  let compiled = compile_workload (vecadd_case ()) in
  let p1 = Fault.plan ~seed:42 ~n:20 compiled in
  let p2 = Fault.plan ~seed:42 ~n:20 compiled in
  check_bool "same seed, same plan" true (p1 = p2);
  let p3 = Fault.plan ~seed:43 ~n:20 compiled in
  check_bool "different seed, different plan" true (p1 <> p3)

let test_plan_covers_all_classes () =
  let compiled = compile_workload (vecadd_case ()) in
  let plan = Fault.plan ~seed:1 ~n:20 compiled in
  check_int "twenty faults planned" 20 (List.length plan);
  List.iter
    (fun cls ->
      check_bool (cls ^ " represented") true
        (List.exists (fun f -> Fault.fault_class f = cls) plan))
    Fault.all_classes

let test_plan_distinct () =
  let compiled = compile_workload (vecadd_case ()) in
  let plan = Fault.plan ~seed:7 ~n:30 compiled in
  let sites = List.map (fun (f : Fault.t) -> f.Fault.kind) plan in
  check_int "no duplicate faults" (List.length sites)
    (List.length (List.sort_uniq compare sites))

let test_rng_deterministic () =
  let seq seed =
    let rng = Fault.Rng.create ~seed in
    List.init 50 (fun _ -> Fault.Rng.int rng 1000)
  in
  check_bool "same stream" true (seq 5 = seq 5);
  check_bool "streams differ by seed" true (seq 5 <> seq 6);
  let rng = Fault.Rng.create ~seed:9 in
  check_bool "bounded" true
    (List.for_all
       (fun _ ->
         let v = Fault.Rng.int rng 17 in
         v >= 0 && v < 17)
       (List.init 200 Fun.id))

(* --- injection hooks agree across simulation kernels -------------------- *)

(* Apply the identical perturbation through the event-driven engine's
   corrupt_signal and the cycle simulator's corrupt hook: both kernels
   must land on the same memories and cycle count. *)
let run_both_with_fault src inits ~port ~perturb =
  let prog = Lang.Parser.parse_string src in
  let compiled = Compile.compile prog in
  let p = List.hd compiled.Compile.partitions in
  let ev_lookup, ev_stores = Verify.memory_env prog ~inits in
  let ev =
    Simulate.run_configuration
      ~injections:
        [ { Simulate.inj_cfg = None; inj_port = port; inj_transform = perturb } ]
      ~memories:ev_lookup p.Compile.datapath p.Compile.fsm
  in
  let cy_lookup, cy_stores = Verify.memory_env prog ~inits in
  let cy =
    Cyclesim.create
      ~corrupt:(fun key -> if key = port then Some perturb else None)
      ~memories:cy_lookup p.Compile.datapath p.Compile.fsm
  in
  let outcome = Cyclesim.run ~max_cycles:2000 cy in
  ( (ev, List.map (fun (n, m) -> (n, Memory.to_list m)) ev_stores),
    (cy, outcome, List.map (fun (n, m) -> (n, Memory.to_list m)) cy_stores) )

let test_kernels_agree_under_fault () =
  let case = vecadd_case () in
  List.iter
    (fun (port, perturb) ->
      let (ev, ev_mems), (cy, _, cy_mems) =
        run_both_with_fault case.Testinfra.Suite.source
          case.Testinfra.Suite.inits ~port ~perturb
      in
      check_bool (port ^ ": same memories") true (ev_mems = cy_mems);
      check_int (port ^ ": same cycles") ev.Simulate.cycles (Cyclesim.cycles cy))
    [
      ("add0.y", Faulty.bit_flip ~bit:2);
      ("add0.y", Faulty.stuck_at ~bit:0 ~value:true);
      ("r_x.q", Faulty.stuck_at ~bit:3 ~value:false);
    ]

let test_injection_unknown_port_rejected () =
  let case = vecadd_case () in
  let prog = Lang.Parser.parse_string case.Testinfra.Suite.source in
  let compiled = Compile.compile prog in
  let lookup, _ = Verify.memory_env prog ~inits:case.Testinfra.Suite.inits in
  let raised =
    try
      ignore
        (Simulate.run_compiled
           ~injections:
             [
               {
                 Simulate.inj_cfg = None;
                 inj_port = "nonesuch.y";
                 inj_transform = Fun.id;
               };
             ]
           ~memories:lookup compiled);
      false
    with Invalid_argument _ -> true
  in
  check_bool "unknown port rejected" true raised

(* --- campaigns ---------------------------------------------------------- *)

let test_campaign_deterministic () =
  let case = vecadd_case () in
  let snapshot (c : Faultcamp.t) =
    List.map
      (fun (m : Faultcamp.mutant) ->
        (Fault.describe m.Faultcamp.fault,
         Faultcamp.outcome_to_string m.Faultcamp.outcome,
         m.Faultcamp.mutant_cycles))
      c.Faultcamp.mutants
  in
  let c1 = Faultcamp.run ~seed:3 ~faults:8 case in
  let c2 = Faultcamp.run ~seed:3 ~faults:8 case in
  check_bool "same seed, same outcomes" true (snapshot c1 = snapshot c2)

let test_campaign_kills_every_class_by_memory_diff () =
  (* vecadd is straight-line over a counter loop, so corrupted data flows
     to the output memory instead of hanging the control flow: every
     fault class must produce at least one mutant killed by the golden-
     model memory comparison itself (not just the timeout watchdog). *)
  let campaign = Faultcamp.run ~seed:1 ~faults:30 (vecadd_case ()) in
  check_bool "clean run passes" true campaign.Faultcamp.clean_passed;
  List.iter
    (fun cls ->
      let memory_killed =
        List.exists
          (fun (m : Faultcamp.mutant) ->
            Fault.fault_class m.Faultcamp.fault = cls
            &&
            match m.Faultcamp.outcome with
            | Faultcamp.Killed reason ->
                String.length reason >= 6 && String.sub reason 0 6 = "memory"
            | _ -> false)
          campaign.Faultcamp.mutants
      in
      check_bool (cls ^ " killed by memory comparison") true memory_killed)
    Fault.all_classes

let test_campaign_stats_consistent () =
  let campaign = Faultcamp.run ~seed:2 ~faults:12 (vecadd_case ()) in
  let total =
    List.fold_left
      (fun acc (s : Faultcamp.class_stats) -> acc + s.Faultcamp.injected)
      0 campaign.Faultcamp.by_class
  in
  check_int "class stats partition the mutants" total
    (List.length campaign.Faultcamp.mutants);
  List.iter
    (fun (s : Faultcamp.class_stats) ->
      check_int (s.Faultcamp.cls ^ " counts add up") s.Faultcamp.injected
        (s.Faultcamp.killed + s.Faultcamp.survived
       + s.Faultcamp.timed_out_cycles + s.Faultcamp.timed_out_wall
       + s.Faultcamp.cancelled + s.Faultcamp.crashed))
    campaign.Faultcamp.by_class;
  let table = Testinfra.Metrics.campaign_table campaign in
  check_bool "table lists every class" true
    (List.for_all
       (fun cls ->
         let n = String.length cls in
         let h = String.length table in
         let rec go i = i + n <= h && (String.sub table i n = cls || go (i + 1)) in
         go 0)
       Fault.all_classes)

let gcd8_case () =
  match Faultcamp.find_workload "gcd8" with
  | Some c -> c
  | None -> Alcotest.fail "gcd8 workload missing"

(* The acceptance determinism property: the whole campaign record is
   equal at jobs=1 and jobs=4, save for the fields that record the
   measurement itself (worker count, wall clock, throughput). *)
let test_campaign_parallel_deterministic () =
  let case = gcd8_case () in
  let c1 = Faultcamp.run ~seed:1 ~faults:20 ~jobs:1 case in
  let c4 = Faultcamp.run ~seed:1 ~faults:20 ~jobs:4 case in
  let normalise (c : Faultcamp.t) =
    { c with Faultcamp.jobs = 0; wall_seconds = 0.; mutants_per_second = 0. }
  in
  check_bool "jobs recorded" true
    (c1.Faultcamp.jobs = 1 && c4.Faultcamp.jobs = 4);
  check_bool "equal Faultcamp.t at jobs=1 and jobs=4" true
    (normalise c1 = normalise c4);
  check_bool "rendered reports byte-identical" true
    (Testinfra.Report.campaign_to_string ~verbose:true c1
    = Testinfra.Report.campaign_to_string ~verbose:true c4)

(* Crash isolation: a raising mutant execution becomes a Crashed outcome
   in its own slot — plan order preserved, no other mutant affected, at
   any worker count. *)
let test_crash_isolated_per_mutant () =
  let plan =
    List.init 6 (fun id ->
        { Fault.id; kind = Fault.Mem_corrupt { mem = "m"; addr = id; xor = 1 } })
  in
  let exec _i (f : Fault.t) =
    if f.Fault.id mod 2 = 0 then raise Division_by_zero
    else
      {
        Faultcamp.fault = f;
        outcome = Faultcamp.Survived;
        mutant_cycles = 7;
        retries = 0;
        quarantined = false;
        replayed = false;
      }
  in
  List.iter
    (fun jobs ->
      let mutants = Faultcamp.run_mutants ~jobs ~exec plan in
      check_int "every planned mutant recorded" 6 (List.length mutants);
      List.iteri
        (fun i (m : Faultcamp.mutant) ->
          check_int "plan order kept" i m.Faultcamp.fault.Fault.id;
          match m.Faultcamp.outcome with
          | Faultcamp.Crashed msg ->
              check_bool "raising mutants crash in place" true
                (i mod 2 = 0 && m.Faultcamp.mutant_cycles = 0
                && msg = Printexc.to_string Division_by_zero)
          | Faultcamp.Survived -> check_bool "others unaffected" true (i mod 2 = 1)
          | _ -> Alcotest.fail "unexpected outcome")
        mutants)
    [ 1; 3 ]

(* A campaign record containing a crash: counted as detected, reported in
   its own table column, excluded from the cycle statistics. *)
let test_crash_counted_as_detected () =
  let fault id = { Fault.id; kind = Fault.Mem_corrupt { mem = "m"; addr = id; xor = 1 } } in
  let exec _i (f : Fault.t) =
    if f.Fault.id = 1 then failwith "synthetic simulator crash"
    else
      {
        Faultcamp.fault = f;
        outcome = Faultcamp.Survived;
        mutant_cycles = 50;
        retries = 0;
        quarantined = false;
        replayed = false;
      }
  in
  let mutants = Faultcamp.run_mutants ~jobs:1 ~exec [ fault 0; fault 1; fault 2 ] in
  let campaign =
    {
      Faultcamp.workload = "synthetic";
      config = { Faultcamp.default_config with seed = 0; faults = 3 };
      jobs = 1;
      backend_used = Faultcamp.Interp;
      clean_passed = true;
      clean_cycles = 50;
      clean_oob = 0;
      cycle_budget = 1200;
      mutants;
      by_class =
        [
          {
            Faultcamp.cls = "mem-corrupt";
            injected = 3;
            killed = 0;
            survived = 2;
            timed_out_cycles = 0;
            timed_out_wall = 0;
            cancelled = 0;
            crashed = 1;
            quarantined = 0;
            retried = 0;
          };
        ];
      kill_rate = 1. /. 3.;
      interrupted = false;
      replayed = 0;
      wall_seconds = 0.5;
      total_mutant_cycles = 100;
      mutants_per_second = 6.;
    }
  in
  check_int "crashes listed" 1 (List.length (Faultcamp.crashes campaign));
  let table = Testinfra.Metrics.campaign_table campaign in
  check_bool "table has a Crashed column" true
    (let needle = "Crashed" in
     let n = String.length needle and h = String.length table in
     let rec go i = i + n <= h && (String.sub table i n = needle || go (i + 1)) in
     go 0);
  (match Testinfra.Metrics.campaign_cycle_stats campaign with
  | Some s ->
      check_int "crashed mutants excluded from cycle stats" 50
        s.Testinfra.Metrics.min_cycles
  | None -> Alcotest.fail "cycle stats expected");
  check_bool "timing line renders" true
    (String.length (Testinfra.Metrics.campaign_timing campaign) > 0)

(* Zero-site guard: a design with no memories must yield a plan (and a
   warning), not an Rng exception out of the site-class rotation. *)
let test_plan_without_mem_sites_warns () =
  let src =
    String.concat "\n"
      [
        "program nomem width 8;";
        "var x;";
        "var y;";
        "x = 3;";
        "y = x + 1;";
        "";
      ]
  in
  let compiled = Compile.compile (Lang.Parser.parse_string src) in
  let warnings = ref [] in
  let plan =
    Fault.plan ~seed:1 ~warn:(fun msg -> warnings := msg :: !warnings) ~n:8
      compiled
  in
  check_bool "planning succeeded without raising" true (List.length plan >= 0);
  check_bool "absent mem-corrupt class warned about" true
    (List.exists
       (fun msg ->
         let needle = "mem-corrupt" in
         let n = String.length needle and h = String.length msg in
         let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
         go 0)
       !warnings);
  check_bool "no mem-corrupt faults planned" true
    (List.for_all (fun f -> Fault.fault_class f <> "mem-corrupt") plan)

let test_plan_full_design_warns_nothing () =
  let compiled = compile_workload (vecadd_case ()) in
  let warnings = ref [] in
  let plan =
    Fault.plan ~seed:1 ~warn:(fun msg -> warnings := msg :: !warnings) ~n:10
      compiled
  in
  check_int "no warnings on a design with every site class" 0
    (List.length !warnings);
  check_int "full plan" 10 (List.length plan)

let test_memory_corrupt_hook () =
  let m = Memory.create ~name:"m" ~width:8 4 in
  Memory.load m [ 1; 2; 3; 4 ];
  Memory.corrupt m ~addr:2 ~xor:0xFF;
  check_int "cell xor-flipped" (3 lxor 0xFF) (Bitvec.to_int (Memory.read m 2));
  check_int "neighbours untouched" 2 (Bitvec.to_int (Memory.read m 1));
  let raised =
    try Memory.corrupt m ~addr:9 ~xor:1; false with Invalid_argument _ -> true
  in
  check_bool "oob corrupt rejected" true raised

let suite =
  [
    ("stuck-at perturbation", `Quick, test_stuck_at);
    ("bit-flip perturbation", `Quick, test_bit_flip);
    ("bad bit rejected", `Quick, test_bad_bit_rejected);
    ("plan deterministic", `Quick, test_plan_deterministic);
    ("plan covers all classes", `Quick, test_plan_covers_all_classes);
    ("plan faults distinct", `Quick, test_plan_distinct);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("kernels agree under fault", `Quick, test_kernels_agree_under_fault);
    ("unknown injection port rejected", `Quick, test_injection_unknown_port_rejected);
    ("campaign deterministic", `Quick, test_campaign_deterministic);
    ("every class killed by memory diff", `Quick, test_campaign_kills_every_class_by_memory_diff);
    ("campaign stats consistent", `Quick, test_campaign_stats_consistent);
    ("parallel campaign deterministic", `Quick, test_campaign_parallel_deterministic);
    ("crash isolated per mutant", `Quick, test_crash_isolated_per_mutant);
    ("crash counted as detected", `Quick, test_crash_counted_as_detected);
    ("plan without mem sites warns", `Quick, test_plan_without_mem_sites_warns);
    ("plan on full design warns nothing", `Quick, test_plan_full_design_warns_nothing);
    ("memory corrupt hook", `Quick, test_memory_corrupt_hook);
  ]
