(* The benchmark's four workloads, one per user-facing path.

   Each request exists twice. [run] is the user path itself: one call
   to the library entry point a user reaches (Verify.run_source,
   Faultcamp.run, Compile.compile + Compile.certify, Fuzz.Oracle.run).
   [traced] performs the same work as the sequence of public calls that
   entry point makes, in the same order, with one span around each, so
   the traced run can split the request across layers without spans
   inside the libraries. Both return an [outcome] whose [signature] the
   traced run must reproduce exactly — otherwise it measured a
   different program. *)

module Compile = Compiler.Compile
module Suite = Testinfra.Suite
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Faultcamp = Testinfra.Faultcamp
module Fault = Faults.Fault
module Memory = Operators.Memory

type outcome = {
  units : int;  (** Verifications, mutants, certificates or programs. *)
  failed : int;  (** Units that produced no verdict. *)
  wrong : int;  (** Units whose verdict disagrees with the reference. *)
  signature : string;
}

type request = {
  label : string;
  units_on_error : int;  (** Units counted as failed when [run] raises. *)
  run : unit -> outcome;
  traced : Spans.t -> outcome * (unit -> unit);
      (** The second component is shadow work, run after the request
          span closes (see {!Spans.shadow}). *)
}

type workload = {
  name : string;
  unit_name : string;
  cycle_seconds : float;
      (** Wall time of one cycle of requests on the reference host (2
          cores, 1 used); sets how many cycles fill [--seconds]. *)
  setup : seed:int -> request list * (unit -> int);
      (** One cycle of requests, and a check run once after the timed
          cycles that returns the number of additional wrong units. *)
}

let span = Spans.with_span
let no_shadow () = ()

(* Fisher-Yates over the campaign RNG, so an order depends only on the
   seed. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Fault.Rng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Fault.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- shared observation helpers -------------------------------------- *)

let total_oob stores =
  List.fold_left (fun a (_, m) -> a + Memory.out_of_range_accesses m) 0 stores

let check_failures (run : Simulate.rtg_run) =
  List.fold_left
    (fun acc (c : Simulate.config_run) ->
      acc
      + List.length
          (List.filter
             (function
               | Operators.Models.Check_failed _ -> true
               | Operators.Models.Probe_sample _ -> false)
             c.Simulate.notifications))
    0 run.Simulate.runs

let mems_equal a b = List.for_all2 (fun (_, x) (_, y) -> Memory.diff x y = []) a b
let mems_of stores = List.map (fun (n, m) -> (n, Memory.to_list m)) stores

let compile_traced sp ?options prog =
  let c = span sp "compiler.compile" (fun () -> Compile.compile ?options prog) in
  Spans.count sp "compiler.compiles" 1;
  c

let golden_traced sp ?max_statements ~memories prog =
  let _, stats =
    span sp "lang.golden" (fun () ->
        Lang.Interp.run ?max_statements ~memories prog)
  in
  Spans.count sp "lang.golden_statements" stats.Lang.Interp.statements;
  stats

let event_traced sp ?max_cycles ~memories compiled =
  let run =
    span sp "sim.event" (fun () ->
        Simulate.run_compiled ?max_cycles ~memories compiled)
  in
  Spans.count sp "sim.cycles" run.Simulate.total_cycles;
  Spans.count sp "sim.events"
    (List.fold_left
       (fun a (c : Simulate.config_run) -> a + c.Simulate.sim_stats.Sim.Engine.events)
       0 run.Simulate.runs);
  run

(* --- suite-verify ------------------------------------------------------ *)

(* Table I at paper size: FDCT1 and FDCT2 over a 64x64 image and Hamming
   over 2048 codewords, inputs drawn from the seed. *)
let table1_cases ~seed =
  let img = Workloads.Fdct.make_image ~width_px:64 ~height_px:64 ~seed in
  [
    {
      Suite.case_name = "FDCT1";
      source = Workloads.Fdct.source ~width_px:64 ~height_px:64 ();
      inits = [ ("input", img) ];
    };
    {
      Suite.case_name = "FDCT2";
      source =
        Workloads.Fdct.source ~partitioned:true ~width_px:64 ~height_px:64 ();
      inits = [ ("input", img) ];
    };
    {
      Suite.case_name = "Hamming";
      source = Workloads.Hamming.source ~n:2048;
      inits =
        [ ("input", Workloads.Hamming.make_codewords ~n:2048 ~seed) ];
    };
  ]

let verify_outcome ~completed ~passed ~cycles =
  {
    units = 1;
    failed = (if completed then 0 else 1);
    wrong = (if completed && not passed then 1 else 0);
    signature = Printf.sprintf "%s/%d" (if passed then "PASS" else "FAIL") cycles;
  }

(* Mirrors Verify.run: compile, two memory environments, golden model,
   hardware simulation, comparison. *)
let verify_traced options (case : Suite.case) sp =
  let prog =
    span sp "lang.parse" (fun () -> Lang.Parser.parse_string case.Suite.source)
  in
  let compiled = compile_traced sp ~options prog in
  let (golden_lookup, golden_stores), (hw_lookup, hw_stores) =
    span sp "verify.memory_env" (fun () ->
        let g = Verify.memory_env prog ~inits:case.Suite.inits in
        (g, Verify.memory_env prog ~inits:case.Suite.inits))
  in
  let stats = golden_traced sp ~memories:golden_lookup prog in
  let run = event_traced sp ~memories:hw_lookup compiled in
  let passed =
    span sp "verify.compare" (fun () ->
        run.Simulate.all_completed
        && mems_equal golden_stores hw_stores
        && check_failures run = stats.Lang.Interp.asserts_failed
        && total_oob golden_stores = 0)
  in
  ( verify_outcome ~completed:run.Simulate.all_completed ~passed
      ~cycles:run.Simulate.total_cycles,
    no_shadow )

let suite_verify =
  {
    name = "suite-verify";
    unit_name = "verification";
    cycle_seconds = 11.8;
    setup =
      (fun ~seed ->
        let requests =
          List.concat_map
            (fun (case : Suite.case) ->
              List.map
                (fun (vname, options) ->
                  {
                    label = case.Suite.case_name ^ "/" ^ vname;
                    units_on_error = 1;
                    run =
                      (fun () ->
                        let v =
                          Verify.run_source ~options ~inits:case.Suite.inits
                            case.Suite.source
                        in
                        let hw = v.Verify.hw_run in
                        verify_outcome ~completed:hw.Simulate.all_completed
                          ~passed:v.Verify.passed
                          ~cycles:hw.Simulate.total_cycles);
                    traced = verify_traced options case;
                  })
                Suite.default_variants)
            (table1_cases ~seed @ Suite.builtin_cases ())
        in
        (requests, fun () -> 0));
  }

(* --- campaign ---------------------------------------------------------- *)

(* fdct1 is left out: 2.2 s of its ~4 s campaign is Fault.plan's site
   enumeration, whatever the fault count, so two seeds of it would fill
   most of a cycle; fdct2 shows the same fixed cost at a third. With
   seven designs, each about twice as costly as the one before, the
   median and the tail fall inside one design's requests (fir's,
   hamming's) instead of between two. *)
let campaign_designs =
  [ "vecadd"; "gcd8"; "sort"; "fir"; "hamming"; "edges"; "fdct2" ]

(* Fault-plan seeds per design: [seed] to [seed + 3]. *)
let campaign_seeds = 4

(* Four full Fastsim batches of 62 mutants. *)
let campaign_faults = 248

(* Interp-backend digests of every campaign request for a range of
   seeds, written by record_reference.exe. *)
let reference_file = "perfbench/campaign_reference.txt"

let campaign_case name =
  match Faultcamp.find_workload name with
  | Some c -> c
  | None -> failwith ("unknown campaign workload " ^ name)

let report_digest r =
  Digest.to_hex
    (Digest.string (Testinfra.Report.campaign_to_string ~verbose:true r))

let outcome_failed = function
  | Faultcamp.Crashed _ | Faultcamp.Cancelled | Faultcamp.Timeout_wall -> true
  | Faultcamp.Killed _ | Faultcamp.Survived | Faultcamp.Timeout_cycles -> false

let campaign_outcome outcomes =
  {
    units = List.length outcomes;
    failed = List.length (List.filter outcome_failed outcomes);
    wrong = 0;
    signature =
      String.concat "," (List.map Faultcamp.outcome_to_string outcomes);
  }

let load_reference () =
  let table = Hashtbl.create 256 in
  let ic = open_in reference_file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ design; seed; digest ] ->
              Hashtbl.replace table (design, int_of_string seed) digest
          | _ -> ()
        done
      with End_of_file -> ());
  table

(* Replays up to four surviving mutants and one detected mutant of a
   compiled-backend report, one by one, on the event-driven simulator
   (the interp backend's path) and counts the verdicts that differ: a
   backend that misses a kill shows up among the survivors. *)
let replay_on_event_sim ~seed (case : Suite.case) (r : Faultcamp.t) =
  let survivors, detected =
    List.partition
      (fun m -> m.Faultcamp.outcome = Faultcamp.Survived)
      r.Faultcamp.mutants
  in
  let take k xs = List.filteri (fun i _ -> i < k) (shuffle ~seed xs) in
  let prog = Lang.Parser.parse_string case.Suite.source in
  let compiled = Compile.compile prog in
  let golden_lookup, golden_stores =
    Verify.memory_env prog ~inits:case.Suite.inits
  in
  let _, stats = Lang.Interp.run ~memories:golden_lookup prog in
  List.length
    (List.filter
       (fun m ->
         let fault = m.Faultcamp.fault in
         let lookup, stores = Verify.memory_env prog ~inits:case.Suite.inits in
         Fault.apply_to_memories lookup fault;
         let injections =
           match Fault.perturbation fault with
           | Some (cfg, port, fn) ->
               [ { Simulate.inj_cfg = Some cfg; inj_port = port; inj_transform = fn } ]
           | None -> []
         in
         let run =
           Simulate.run_compiled ~max_cycles:r.Faultcamp.cycle_budget
             ~injections
             ~mutate_fsm:(fun fsm -> Fault.apply_to_fsm fsm fault)
             ~memories:lookup compiled
         in
         let verdict =
           Faultcamp.judge ~golden_stores
             ~golden_asserts:stats.Lang.Interp.asserts_failed
             ~clean_hw_oob:r.Faultcamp.clean_oob stores run
         in
         let replayed = Faultcamp.outcome_to_string verdict
         and reported = Faultcamp.outcome_to_string m.Faultcamp.outcome in
         if replayed <> reported then
           Printf.eprintf "%s: %s is %s on the event-driven simulator, %s compiled\n%!"
             case.Suite.case_name (Fault.describe fault) replayed reported;
         replayed <> reported)
       (take 4 survivors @ take 1 detected))

(* Mirrors Faultcamp.run ~backend:Compiled ~jobs:1 without a journal:
   parse, compile, golden model, clean event-driven run, Fastsim
   admission and compile, clean-lane validation, fault plan, then per
   batch of 62 mutants the lane set-up, one Fastsim.run and judging. *)
let campaign_traced ~seed (case : Suite.case) sp =
  let inits = case.Suite.inits in
  let prog =
    span sp "lang.parse" (fun () -> Lang.Parser.parse_string case.Suite.source)
  in
  let compiled = compile_traced sp prog in
  let golden_lookup, golden_stores =
    span sp "verify.memory_env" (fun () -> Verify.memory_env prog ~inits)
  in
  let stats = golden_traced sp ~memories:golden_lookup prog in
  let golden_asserts = stats.Lang.Interp.asserts_failed in
  let clean_lookup, clean_stores =
    span sp "verify.memory_env" (fun () -> Verify.memory_env prog ~inits)
  in
  let clean = event_traced sp ~memories:clean_lookup compiled in
  let clean_hw_oob =
    span sp "verify.compare" (fun () ->
        if
          not
            (clean.Simulate.all_completed
            && mems_equal golden_stores clean_stores
            && check_failures clean = golden_asserts)
        then failwith (case.Suite.case_name ^ ": clean design fails verification");
        total_oob clean_stores)
  in
  let clean_cycles = clean.Simulate.total_cycles in
  let budget_cycles =
    Testinfra.Budget.cycle_budget ~max_cycles_factor:4 clean_cycles
  in
  let fast =
    span sp "fastsim.compile" (fun () ->
        (match Fastsim.admissible compiled with
        | Ok () -> ()
        | Error m -> failwith m);
        Fastsim.compile compiled)
  in
  span sp "fastsim.validate" (fun () ->
      let lookup, stores = Verify.memory_env prog ~inits in
      let r =
        (Fastsim.run ~max_cycles:budget_cycles fast
           [| Fastsim.clean_lane lookup |]).(0)
      in
      if
        not
          (r.Fastsim.completed
          && r.Fastsim.total_cycles = clean_cycles
          && r.Fastsim.checks = golden_asserts
          && total_oob stores = clean_hw_oob
          && mems_equal clean_stores stores)
      then failwith "compiled backend diverges on the clean design");
  let plan =
    span sp "faults.plan" (fun () ->
        Fault.plan ~seed ~n:campaign_faults compiled)
  in
  Spans.count sp "faults.planned" (List.length plan);
  let rec batches = function
    | [] -> []
    | xs ->
        let n = min Fastsim.max_mutants_per_batch (List.length xs) in
        List.filteri (fun i _ -> i < n) xs
        :: batches (List.filteri (fun i _ -> i >= n) xs)
  in
  let outcomes =
    List.concat_map
      (fun batch ->
        let lanes =
          span sp "faultcamp.lane_setup" (fun () ->
              let clean_lookup, clean_s = Verify.memory_env prog ~inits in
              (clean_s, Fastsim.clean_lane clean_lookup)
              :: List.map
                   (fun fault ->
                     let lookup, stores = Verify.memory_env prog ~inits in
                     Fault.apply_to_memories lookup fault;
                     let injections =
                       match Fault.perturbation fault with
                       | Some (cfg, port, fn) -> [ (Some cfg, port, fn) ]
                       | None -> []
                     in
                     ( stores,
                       {
                         Fastsim.memories = lookup;
                         injections;
                         mutate_fsm = (fun fsm -> Fault.apply_to_fsm fsm fault);
                       } ))
                   batch)
        in
        let res =
          span sp "fastsim.run" (fun () ->
              Fastsim.run ~max_cycles:budget_cycles
                ~slice_cycles:Faultcamp.default_slice_cycles fast
                (Array.of_list (List.map snd lanes)))
        in
        Spans.count sp "fastsim.batches" 1;
        Spans.count sp "fastsim.lane_cycles"
          (Array.fold_left (fun a r -> a + r.Fastsim.total_cycles) 0 res);
        span sp "faultcamp.judge" (fun () ->
            let r0 = res.(0) in
            if
              not
                (r0.Fastsim.completed
                && r0.Fastsim.total_cycles = clean_cycles
                && r0.Fastsim.checks = golden_asserts
                && total_oob (fst (List.hd lanes)) = clean_hw_oob
                && mems_equal clean_stores (fst (List.hd lanes)))
            then failwith "clean lane diverged from the event-driven reference";
            List.mapi
              (fun k (stores, _) ->
                let r = res.(k + 1) in
                Faultcamp.judge_values ~golden_stores ~golden_asserts
                  ~clean_hw_oob ~all_completed:r.Fastsim.completed
                  ~checks:r.Fastsim.checks stores)
              (List.tl lanes)))
      (batches plan)
  in
  Spans.count sp "faultcamp.killed"
    (List.length
       (List.filter
          (function
            | Faultcamp.Killed _ | Faultcamp.Timeout_cycles
            | Faultcamp.Timeout_wall | Faultcamp.Crashed _ ->
                true
            | Faultcamp.Survived | Faultcamp.Cancelled -> false)
          outcomes));
  (campaign_outcome outcomes, no_shadow)

let campaign =
  {
    name = "campaign";
    unit_name = "mutant";
    cycle_seconds = 8.0;
    setup =
      (fun ~seed ->
        let reference = load_reference () in
        let cells =
          List.concat_map
            (fun design ->
              List.map
                (fun s -> (design, s, campaign_case design, ref None))
                (List.init campaign_seeds (fun k -> seed + k)))
            campaign_designs
        in
        let requests =
          List.map
            (fun (design, s, case, last) ->
              {
                label = Printf.sprintf "%s/seed%d" design s;
                units_on_error = campaign_faults;
                run =
                  (fun () ->
                    let r =
                      Faultcamp.run ~seed:s ~faults:campaign_faults
                        ~backend:Faultcamp.Compiled ~jobs:1 case
                    in
                    last := Some r;
                    let o =
                      campaign_outcome
                        (List.map (fun m -> m.Faultcamp.outcome) r.Faultcamp.mutants)
                    in
                    if r.Faultcamp.backend_used = Faultcamp.Compiled then o
                    else { o with failed = o.units });
                traced = campaign_traced ~seed:s case;
              })
            cells
        in
        (* The compiled backend is checked against the interp backend:
           the whole report against its recorded digest where the seed
           is in the table, and five mutants replayed on the event-driven
           simulator for any seed. *)
        let check () =
          List.fold_left
            (fun wrong (design, s, case, last) ->
              match !last with
              | None -> wrong
              | Some r ->
                  let digest_wrong =
                    match Hashtbl.find_opt reference (design, s) with
                    | Some d when d <> report_digest r ->
                        Printf.eprintf
                          "campaign %s seed %d: report differs from the interp backend's\n%!"
                          design s;
                        1
                    | Some _ | None -> 0
                  in
                  wrong + digest_wrong
                  + replay_on_event_sim ~seed:(Hashtbl.hash (design, s)) case r)
            0 cells
        in
        (requests, check));
  }

(* --- certify ----------------------------------------------------------- *)

let options_of share optimize fold =
  { Compile.share_operators = share; optimize; fold_branches = fold }

(* The variants of `fpgatest tv`: each pass alone and all together. *)
let tv_variants =
  [
    ("optimized", options_of false true false);
    ("shared", options_of true false false);
    ("folded", options_of false false true);
    ("all", options_of true true true);
  ]

let certify_outcome reports =
  let count p = List.length (List.filter (fun (r : Tv.report) -> p r.Tv.cert) reports) in
  {
    units = List.length reports;
    failed =
      count (function
        | Tv.Proved | Tv.Refuted _ -> false
        | Tv.Validated | Tv.Inconclusive _ -> true);
    wrong = count (function Tv.Refuted _ -> true | _ -> false);
    signature =
      String.concat ","
        (List.map
           (fun (r : Tv.report) ->
             r.Tv.partition ^ ":" ^ Tv.pass_name r.Tv.pass ^ "="
             ^
             match r.Tv.cert with
             | Tv.Proved -> "proved"
             | Tv.Validated -> "validated"
             | Tv.Refuted _ -> "refuted"
             | Tv.Inconclusive _ -> "inconclusive")
           reports);
  }

let certify_traced sp compiled =
  let module S = Ec.Term.Stats in
  let before = S.get () in
  let reports = span sp "tv.certify" (fun () -> Compile.certify compiled) in
  let after = S.get () in
  Spans.attribute sp "ec.normalize" (after.S.normalize_s -. before.S.normalize_s);
  Spans.attribute sp "ec.blast" (after.S.blast_s -. before.S.blast_s);
  Spans.attribute sp "ec.solve" (after.S.solve_s -. before.S.solve_s);
  Spans.count sp "ec.sat_calls" (after.S.sat_calls - before.S.sat_calls);
  Spans.count sp "ec.conflicts" (after.S.conflicts - before.S.conflicts);
  List.iter
    (fun (r : Tv.report) ->
      Spans.attribute sp ("tv." ^ Tv.pass_name r.Tv.pass) r.Tv.seconds;
      Spans.count sp "tv.certificates" 1;
      if r.Tv.cert = Tv.Proved then Spans.count sp "tv.proved" 1)
    reports;
  reports

let rec stmt_writes_mem m = function
  | Lang.Ast.Mem_write (m', _, _) -> m' = m
  | Lang.Ast.If (_, t, e) ->
      List.exists (stmt_writes_mem m) t || List.exists (stmt_writes_mem m) e
  | Lang.Ast.While (_, b) -> List.exists (stmt_writes_mem m) b
  | Lang.Ast.Assign _ | Lang.Ast.Assert _ | Lang.Ast.Partition -> false

(* The read-only memory initialisers Compile.certify hands the absint
   invariant-preservation query: memories no statement writes. *)
let readonly_mem_inits (prog : Lang.Ast.program) =
  List.filter_map
    (fun (m : Lang.Ast.mem_decl) ->
      if List.exists (stmt_writes_mem m.Lang.Ast.mem_name) prog.Lang.Ast.body
      then None
      else Some (m.Lang.Ast.mem_name, m.Lang.Ast.mem_init))
    prog.Lang.Ast.mems

(* The Absint.analyze calls Tv.validate_hardware makes inside certify,
   repeated as shadow work to attribute their share: for each hardware
   pass, the pass input (the same program compiled with that pass off,
   same partition) and the pass output, with the read-only memory
   initialisers. *)
let absint_shadow sp prog (compiled : Compile.t) () =
  let memories = readonly_mem_inits compiled.Compile.program in
  let o = compiled.Compile.options in
  let references =
    (if o.Compile.share_operators then [ { o with Compile.share_operators = false } ]
     else [])
    @ if o.Compile.fold_branches then [ { o with Compile.fold_branches = false } ]
      else []
  in
  List.iter
    (fun options ->
      let reference = span sp "compiler.compile" (fun () -> Compile.compile ~options prog) in
      List.iter2
        (fun (rp : Compile.partition) (cp : Compile.partition) ->
          List.iter
            (fun (p : Compile.partition) ->
              match
                span sp "absint.analyze" (fun () ->
                    Absint.analyze ~memories p.Compile.datapath p.Compile.fsm)
              with
              | a ->
                  Spans.count sp "absint.analyses" 1;
                  Spans.count sp "absint.iterations" (Absint.iterations a)
              | exception Failure _ -> Spans.count sp "absint.analyses" 1)
            [ rp; cp ])
        reference.Compile.partitions compiled.Compile.partitions)
    references

let certify =
  {
    name = "certify";
    unit_name = "certificate";
    cycle_seconds = 10.7;
    setup =
      (fun ~seed ->
        (* fdct1 alone takes 17 s of `fpgatest tv --builtin`'s 28 s, more
           than a cycle may; fdct2 carries the same FDCT datapath. *)
        let kernels =
          List.filter_map
            (fun (c : Suite.case) ->
              if c.Suite.case_name = "fdct1" then None
              else Some (c.Suite.case_name, Lang.Parser.parse_string c.Suite.source))
            (Suite.builtin_cases ())
        in
        let requests =
          List.concat_map
            (fun (name, prog) ->
              List.map
                (fun (vname, options) ->
                  {
                    label = name ^ "/" ^ vname;
                    units_on_error = 1;
                    run =
                      (fun () ->
                        certify_outcome
                          (Compile.certify (Compile.compile ~options prog)));
                    traced =
                      (fun sp ->
                        let compiled = compile_traced sp ~options prog in
                        ( certify_outcome (certify_traced sp compiled),
                          absint_shadow sp prog compiled ));
                  })
                tv_variants)
            kernels
        in
        (shuffle ~seed requests, fun () -> 0));
  }

(* --- fuzz -------------------------------------------------------------- *)

(* Small programs: at `fpgatest fuzz`'s default 8 statements per
   partition one program averages 0.9 s and a few take 3-4 s, so a cycle
   would hold a dozen programs and no tail. *)
let fuzz_profile = { Fuzz.Gen.default_profile with Fuzz.Gen.max_stmts = 4 }

let fuzz_programs = 32

let fuzz_signature = function
  | Fuzz.Oracle.Agree -> "agree"
  | Fuzz.Oracle.Rejected _ -> "rejected"
  | Fuzz.Oracle.Diverged _ as v ->
      "diverged:" ^ String.concat "+" (Fuzz.Oracle.classes v)

let fuzz_outcome signature =
  {
    units = 1;
    failed = Bool.to_int (signature = "rejected");
    wrong = Bool.to_int (signature <> "agree" && signature <> "rejected");
    signature;
  }

(* Mirrors Fuzz.Oracle.run with its defaults (all backends, 200k cycles,
   400k statements, decide engine), recording the same divergence
   classes. *)
let fuzz_traced prog sp =
  let max_cycles = 200_000 in
  let shadows = ref [] in
  let classes = ref [] in
  let add variant pair field =
    classes :=
      (variant ^ "/" ^ pair ^ if field = "" then "" else "/" ^ field) :: !classes
  in
  let observe stores = (total_oob stores, mems_of stores) in
  let signature =
    match
      span sp "lang.check" (fun () ->
          match Lang.Check.check prog with
          | _ :: _ as m -> m
          | [] -> Compile.check_partition_flow prog)
    with
    | _ :: _ -> "rejected"
    | [] -> (
        let lookup, stores =
          span sp "verify.memory_env" (fun () -> Verify.memory_env prog ~inits:[])
        in
        match golden_traced sp ~max_statements:400_000 ~memories:lookup prog with
        | exception Lang.Interp.Runaway _ -> "rejected"
        | g ->
            let g_oob, g_mems = span sp "verify.compare" (fun () -> observe stores) in
            let g_asserts = g.Lang.Interp.asserts_failed in
            let plain = ref None in
            List.iter
              (fun { Fuzz.Oracle.v_name = v; v_options } ->
                match compile_traced sp ~options:v_options prog with
                | exception Compile.Error _ -> add v "compile" ""
                | exception _ -> add v "compile" "crash"
                | compiled -> (
                    List.iter
                      (fun (r : Tv.report) ->
                        match r.Tv.cert with
                        | Tv.Refuted _ -> add v "tv" (Tv.pass_name r.Tv.pass)
                        | Tv.Validated | Tv.Proved | Tv.Inconclusive _ -> ())
                      (certify_traced sp compiled);
                    shadows := absint_shadow sp prog compiled :: !shadows;
                    let lookup, stores =
                      span sp "verify.memory_env" (fun () ->
                          Verify.memory_env prog ~inits:[])
                    in
                    match event_traced sp ~max_cycles ~memories:lookup compiled with
                    | exception _ -> add v "event" "crash"
                    | run ->
                        let completed = run.Simulate.all_completed
                        and cycles = run.Simulate.total_cycles
                        and checks = check_failures run in
                        let oob, mems = span sp "verify.compare" (fun () -> observe stores) in
                        span sp "verify.compare" (fun () ->
                            if v = "plain" then plain := Some (completed, checks, mems);
                            if not completed then add v "golden-vs-event" "completed";
                            if g_oob = 0 && checks <> g_asserts then
                              add v "golden-vs-event" "checks";
                            if g_oob = 0 && mems <> g_mems then
                              add v "golden-vs-event" "memories";
                            match !plain with
                            | Some (pc, pk, pm) when v <> "plain" ->
                                if completed <> pc then add v "plain-vs-variant" "completed";
                                if checks <> pk then add v "plain-vs-variant" "checks";
                                if mems <> pm then add v "plain-vs-variant" "memories"
                            | _ -> ());
                        let compare_hw pair (c, cy, k, o, m) ~with_oob =
                          span sp "verify.compare" (fun () ->
                              if c <> completed then add v pair "completed";
                              if cy <> cycles then add v pair "cycles";
                              if k <> checks then add v pair "checks";
                              if m <> mems then add v pair "memories";
                              if with_oob && o <> oob then add v pair "oob")
                        in
                        (match
                           span sp "cyclesim.run" (fun () ->
                               let lookup, stores = Verify.memory_env prog ~inits:[] in
                               try
                                 let completed = ref true and cy = ref 0 and k = ref 0 in
                                 List.iter
                                   (fun (p : Compile.partition) ->
                                     if !completed then begin
                                       let sim =
                                         Cyclesim.create ~memories:lookup
                                           p.Compile.datapath p.Compile.fsm
                                       in
                                       (match Cyclesim.run ~max_cycles sim with
                                       | `Done -> ()
                                       | `Max_cycles | `Stopped -> completed := false);
                                       cy := !cy + Cyclesim.cycles sim;
                                       k := !k + Cyclesim.check_failures sim
                                     end)
                                   compiled.Compile.partitions;
                                 let o, m = observe stores in
                                 Some (!completed, !cy, !k, o, m)
                               with Cyclesim.Combinational_cycle _ -> None)
                         with
                        | exception _ -> add v "cyclesim" "crash"
                        | None -> Spans.count sp "cyclesim.refused" 1
                        | Some ((_, cy, _, _, _) as obs) ->
                            Spans.count sp "cyclesim.cycles" cy;
                            compare_hw "event-vs-cyclesim" obs ~with_oob:false);
                        match
                          match
                            span sp "fastsim.compile" (fun () ->
                                match Fastsim.admissible compiled with
                                | Error _ -> None
                                | Ok () -> Some (Fastsim.compile compiled))
                          with
                          | None -> None
                          | Some fast ->
                              span sp "fastsim.run" (fun () ->
                                  let lookup, stores = Verify.memory_env prog ~inits:[] in
                                  let r =
                                    (Fastsim.run ~max_cycles fast
                                       [| Fastsim.clean_lane lookup |]).(0)
                                  in
                                  Spans.count sp "fastsim.batches" 1;
                                  Spans.count sp "fastsim.lane_cycles" r.Fastsim.total_cycles;
                                  let o, m = observe stores in
                                  Some (r.Fastsim.completed, r.Fastsim.total_cycles, r.Fastsim.checks, o, m))
                        with
                        | exception Fastsim.Unsupported _ -> Spans.count sp "fastsim.refused" 1
                        | exception _ -> add v "fastsim" "crash"
                        | None -> Spans.count sp "fastsim.refused" 1
                        | Some obs -> compare_hw "event-vs-fastsim" obs ~with_oob:true))
              Fuzz.Oracle.variants;
            match List.sort_uniq compare !classes with
            | [] -> "agree"
            | cs -> "diverged:" ^ String.concat "+" cs)
  in
  let shadows = List.rev !shadows in
  (fuzz_outcome signature, fun () -> List.iter (fun f -> f ()) shadows)

let fuzz =
  {
    name = "fuzz";
    unit_name = "program";
    cycle_seconds = 7.7;
    setup =
      (fun ~seed ->
        (* A fixed pool: per-program cost spans 0.01-1.3 s, so a pool
           drawn from the run's seed would move throughput by +-20%
           between seeds. The seed sets the order. *)
        let programs =
          List.init fuzz_programs (fun i ->
              (i, Fuzz.Gen.program ~profile:fuzz_profile ~seed:1 ~index:i ()))
        in
        let requests =
          List.map
            (fun (i, prog) ->
              {
                label = Printf.sprintf "program%d" i;
                units_on_error = 1;
                run = (fun () -> fuzz_outcome (fuzz_signature (Fuzz.Oracle.run prog)));
                traced = fuzz_traced prog;
              })
            programs
        in
        (shuffle ~seed requests, fun () -> 0));
  }

let all = [ suite_verify; campaign; certify; fuzz ]
