(* Tests for the resilient-campaign machinery: watchdog budgets and
   their overflow-safe arithmetic, the JSONL run journal, crash
   retry/quarantine, cooperative cancellation, and checkpoint-resume
   producing reports identical to uninterrupted runs. *)

module Budget = Testinfra.Budget
module Journal = Testinfra.Journal
module Fault = Faults.Fault
module Faultcamp = Testinfra.Faultcamp
module Suite = Testinfra.Suite
module Simulate = Testinfra.Simulate
module Verify = Testinfra.Verify
module Report = Testinfra.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "resilience" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- overflow-safe budget arithmetic ------------------------------------ *)

let test_cycle_budget_pins () =
  (* The satellite bugfix: clean_cycles * factor + 1000 must clamp, not
     wrap. These pins document the exact clamped values. *)
  check_int "ordinary budget" 1200 (Budget.cycle_budget ~max_cycles_factor:4 50);
  check_int "zero clean cycles keeps the headroom"
    1000
    (Budget.cycle_budget ~max_cycles_factor:4 0);
  check_int "huge product clamps to max_int" max_int
    (Budget.cycle_budget ~max_cycles_factor:4 (max_int / 2));
  check_int "headroom overflow clamps to max_int" max_int
    (Budget.cycle_budget ~max_cycles_factor:1 (max_int - 500));
  check_int "custom headroom" 250
    (Budget.cycle_budget ~headroom:50 ~max_cycles_factor:4 50);
  check_bool "negative cycles rejected" true
    (try ignore (Budget.cycle_budget ~max_cycles_factor:4 (-1)); false
     with Invalid_argument _ -> true);
  check_bool "zero factor rejected" true
    (try ignore (Budget.cycle_budget ~max_cycles_factor:0 10); false
     with Invalid_argument _ -> true)

let test_saturating_mul () =
  check_int "small product" 42 (Budget.saturating_mul 6 7);
  check_int "zero factor" 0 (Budget.saturating_mul 0 max_int);
  check_int "overflow clamps" max_int (Budget.saturating_mul max_int 2);
  check_int "boundary stays exact" max_int (Budget.saturating_mul max_int 1);
  check_bool "negative rejected" true
    (try ignore (Budget.saturating_mul (-1) 3); false
     with Invalid_argument _ -> true)

(* --- budget checks ------------------------------------------------------ *)

let test_budget_check_precedence () =
  let tok = Budget.token () in
  (* An expired deadline AND a fired token: cancellation wins, so a
     Ctrl-C during a hung mutant reports Cancelled, not Timeout_wall. *)
  let b = Budget.start ~wall_seconds:0.001 ~token:tok () in
  Unix.sleepf 0.01;
  check_bool "deadline alone expires" true (Budget.check b = Some Budget.Timeout_wall);
  Budget.cancel tok;
  check_bool "cancellation beats the expired deadline" true
    (Budget.check b = Some Budget.Cancelled);
  check_bool "non-positive wall_seconds disables the deadline" true
    (Budget.check (Budget.start ~wall_seconds:(-1.) ()) = None);
  check_bool "unlimited never fires" true (Budget.check Budget.unlimited = None);
  check_bool "slice_cycles below 1 rejected" true
    (try ignore (Budget.start ~slice_cycles:0 ()); false
     with Invalid_argument _ -> true)

let test_failure_labels_stable () =
  (* The journal format depends on these exact strings. *)
  check_string "timeout_cycles" "timeout_cycles"
    (Budget.failure_label Budget.Timeout_cycles);
  check_string "timeout_wall" "timeout_wall"
    (Budget.failure_label Budget.Timeout_wall);
  check_string "crashed" "crashed" (Budget.failure_label (Budget.Crashed "x"));
  check_string "cancelled" "cancelled" (Budget.failure_label Budget.Cancelled);
  check_string "retried_ok" "retried_ok"
    (Budget.failure_label (Budget.Retried_ok 2))

(* --- journal codec ------------------------------------------------------ *)

let test_journal_round_trip () =
  let nasty = "quote \" backslash \\ newline \n tab \t ctrl \x01 done" in
  let obj =
    [
      ("s", Journal.String nasty);
      ("i", Journal.Int (-42));
      ("f", Journal.Float 3.25);
      ("b", Journal.Bool true);
      ("b2", Journal.Bool false);
    ]
  in
  let line = Journal.to_line obj in
  check_bool "one line" true (not (String.contains line '\n'));
  match Journal.of_line line with
  | None -> Alcotest.fail "round trip failed to parse"
  | Some got ->
      check_bool "string survives escaping" true
        (Journal.find_string got "s" = Some nasty);
      check_bool "int" true (Journal.find_int got "i" = Some (-42));
      check_bool "float" true (Journal.find_float got "f" = Some 3.25);
      check_bool "int promotes to float" true
        (Journal.find_float got "i" = Some (-42.));
      check_bool "bools" true
        (Journal.find_bool got "b" = Some true
        && Journal.find_bool got "b2" = Some false)

let test_journal_torn_tail_dropped () =
  with_temp_file (fun path ->
      let w = Journal.create ~path ~header:[ ("journal", Journal.String "t") ] in
      Journal.append w [ ("task", Journal.Int 0) ];
      Journal.append w [ ("task", Journal.Int 1) ];
      Journal.close w;
      (* Simulate a crash mid-write: a torn, unterminated JSON fragment. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"task\": 2, \"outcome\": \"ki";
      close_out oc;
      let loaded = Journal.load path in
      check_int "torn tail dropped, intact lines kept" 3 (List.length loaded);
      check_bool "last intact entry survives" true
        (match List.rev loaded with
        | last :: _ -> Journal.find_int last "task" = Some 1
        | [] -> false))

(* --- cooperative watchdog slicing --------------------------------------- *)

(* The seed-4, 6-fault campaign most tests below run. *)
let seed4 = { Faultcamp.default_config with seed = 4; faults = 6 }

let vecadd_case () =
  match Faultcamp.find_workload "vecadd" with
  | Some c -> c
  | None -> Alcotest.fail "vecadd workload missing"

let gcd8_case () =
  match Faultcamp.find_workload "gcd8" with
  | Some c -> c
  | None -> Alcotest.fail "gcd8 workload missing"

let test_sliced_simulation_equivalent () =
  (* Slicing is purely an observation schedule: the engine must produce
     the same cycle counts and memory contents with and without it. *)
  let case = vecadd_case () in
  let prog = Lang.Parser.parse_string case.Suite.source in
  let compiled = Compiler.Compile.compile prog in
  let run budget =
    let lookup, stores = Verify.memory_env prog ~inits:case.Suite.inits in
    let r = Simulate.run_compiled ?budget ~memories:lookup compiled in
    (r.Simulate.total_cycles, r.Simulate.all_completed,
     List.map (fun (n, m) -> (n, Operators.Memory.to_list m)) stores)
  in
  let plain = run None in
  let sliced = run (Some (Budget.start ~slice_cycles:7 ())) in
  check_bool "sliced run identical to one-shot run" true (plain = sliced)

let test_wall_watchdog_kills_nonterminating_design () =
  (* A hand-built design that never reaches its done state: the watchdog
     must end it near the deadline and classify it Timeout_wall, long
     before the (enormous) cycle budget would. *)
  let src =
    String.concat "\n"
      [
        "program spin width 8;";
        "mem out[1];";
        "var a;";
        "a = 1;";
        "while (a != 0) {";
        "  a = 1;";
        "}";
        "out[0] = a;";
        "";
      ]
  in
  let prog = Lang.Parser.parse_string src in
  let compiled = Compiler.Compile.compile prog in
  let lookup, _ = Verify.memory_env prog ~inits:[] in
  let started = Unix.gettimeofday () in
  let budget = Budget.start ~wall_seconds:0.2 ~slice_cycles:256 () in
  let r =
    Simulate.run_compiled ~max_cycles:1_000_000_000 ~budget ~memories:lookup
      compiled
  in
  let elapsed = Unix.gettimeofday () -. started in
  check_bool "classified as a wall timeout" true
    (r.Simulate.budget_failure = Some Budget.Timeout_wall);
  check_bool "did not complete" true (not r.Simulate.all_completed);
  check_bool "died near the deadline, not the cycle budget" true (elapsed < 10.)

let test_campaign_wall_watchdog_classifies_timeouts () =
  (* The acceptance scenario: gcd8 under a huge cycle factor contains
     mutants that loop forever; with a small wall deadline they must be
     reported as detected Timeout_wall while the campaign completes and
     the other mutants still get their ordinary verdicts. *)
  let campaign =
    Faultcamp.campaign
      {
        Faultcamp.default_config with
        faults = 8;
        max_cycles_factor = 1_000_000;
        deadline_seconds = 0.25;
        slice_cycles = 500;
      }
      (gcd8_case ())
  in
  check_int "every planned mutant has a verdict" 8
    (List.length campaign.Faultcamp.mutants);
  let walls = Faultcamp.wall_timeouts campaign in
  check_bool "at least one wall timeout" true (walls <> []);
  check_bool "wall timeouts count as detected" true
    (campaign.Faultcamp.kill_rate > 0.);
  check_bool "campaign not marked interrupted" true
    (not campaign.Faultcamp.interrupted);
  check_bool "other mutants still judged normally" true
    (List.exists
       (fun (m : Faultcamp.mutant) ->
         match m.Faultcamp.outcome with
         | Faultcamp.Killed _ | Faultcamp.Survived -> true
         | _ -> false)
       campaign.Faultcamp.mutants);
  let wall_stats =
    List.fold_left
      (fun acc (s : Faultcamp.class_stats) -> acc + s.Faultcamp.timed_out_wall)
      0 campaign.Faultcamp.by_class
  in
  check_int "class stats record the wall timeouts" (List.length walls) wall_stats

(* --- retry / quarantine ------------------------------------------------- *)

let synthetic_fault id =
  { Fault.id; kind = Fault.Mem_corrupt { mem = "m"; addr = id; xor = 1 } }

let ok_mutant fault =
  {
    Faultcamp.fault;
    outcome = Faultcamp.Survived;
    mutant_cycles = 5;
    retries = 0;
    quarantined = false;
    replayed = false;
  }

let test_retry_transient_crash_recovers () =
  let fault = synthetic_fault 0 in
  let attempts = ref 0 in
  let m =
    Faultcamp.with_retries ~max_retries:2 ~backoff_seconds:0. ~fault
      (fun ~attempt ->
        incr attempts;
        if attempt = 0 then failwith "transient glitch" else ok_mutant fault)
  in
  check_int "two attempts" 2 !attempts;
  check_bool "recovered" true (m.Faultcamp.outcome = Faultcamp.Survived);
  check_int "retry count recorded" 1 m.Faultcamp.retries;
  check_bool "not quarantined" true (not m.Faultcamp.quarantined)

let test_identical_crash_quarantined () =
  let fault = synthetic_fault 1 in
  let attempts = ref 0 in
  let m =
    Faultcamp.with_retries ~max_retries:50 ~backoff_seconds:0. ~fault
      (fun ~attempt:_ ->
        incr attempts;
        failwith "deterministic crash")
  in
  (* Identical message twice in a row -> quarantined immediately, even
     with dozens of retries still allowed. *)
  check_int "exactly two attempts despite max_retries=50" 2 !attempts;
  check_bool "quarantined" true m.Faultcamp.quarantined;
  check_bool "recorded as crashed" true
    (match m.Faultcamp.outcome with
    | Faultcamp.Crashed msg -> msg = "Failure(\"deterministic crash\")"
    | _ -> false)

let test_distinct_crashes_exhaust_retries () =
  let fault = synthetic_fault 2 in
  let attempts = ref 0 in
  let m =
    Faultcamp.with_retries ~max_retries:2 ~backoff_seconds:0. ~fault
      (fun ~attempt ->
        incr attempts;
        failwith (Printf.sprintf "crash %d" attempt))
  in
  check_int "initial attempt plus two retries" 3 !attempts;
  check_bool "not quarantined (messages differed)" true
    (not m.Faultcamp.quarantined);
  check_int "retries recorded" 2 m.Faultcamp.retries;
  check_bool "final outcome is the last crash" true
    (match m.Faultcamp.outcome with
    | Faultcamp.Crashed msg -> msg = "Failure(\"crash 2\")"
    | _ -> false)

(* --- cancellation ------------------------------------------------------- *)

let test_precancelled_campaign_is_all_cancelled () =
  with_temp_file (fun path ->
      let tok = Budget.token () in
      Budget.cancel tok;
      let campaign =
        Faultcamp.campaign ~cancel:tok ~journal_path:path
          { Faultcamp.default_config with faults = 6 }
          (vecadd_case ())
      in
      check_bool "marked interrupted" true campaign.Faultcamp.interrupted;
      check_int "every mutant cancelled"
        (List.length campaign.Faultcamp.mutants)
        (List.length (Faultcamp.cancelled campaign));
      check_bool "kill rate has no executed denominator" true
        (campaign.Faultcamp.kill_rate = 0.);
      (* Cancelled mutants are exactly the work a resume must redo: the
         journal may not record them as done. *)
      let entries = Journal.load path in
      check_bool "no task entries journaled" true
        (List.for_all (fun e -> Journal.find_int e "task" = None) entries);
      (* Resuming with a fresh token finishes the whole campaign and
         reports byte-identically to a never-interrupted run. *)
      let resumed = Faultcamp.resume path in
      let fresh = Faultcamp.run ~seed:1 ~faults:6 (vecadd_case ()) in
      check_string "resumed report equals fresh report"
        (Report.campaign_to_string ~verbose:true fresh)
        (Report.campaign_to_string ~verbose:true resumed))

let test_stop_after_then_resume () =
  with_temp_file (fun path ->
      let partial =
        Faultcamp.campaign ~journal_path:path ~stop_after:2 seed4
          (vecadd_case ())
      in
      check_bool "stop-after interrupts the campaign" true
        partial.Faultcamp.interrupted;
      check_bool "some mutants cancelled" true
        (Faultcamp.cancelled partial <> []);
      let done_entries =
        List.filter
          (fun e -> Journal.find_int e "task" <> None)
          (Journal.load path)
      in
      check_bool "at least the requested entries checkpointed" true
        (List.length done_entries >= 2);
      let resumed = Faultcamp.resume path in
      check_bool "resume replays the checkpointed work" true
        (resumed.Faultcamp.replayed >= 2);
      check_bool "resumed campaign completed" true
        (not resumed.Faultcamp.interrupted);
      let fresh = Faultcamp.run ~seed:4 ~faults:6 (vecadd_case ()) in
      check_string "resumed report equals fresh report"
        (Report.campaign_to_string ~verbose:true fresh)
        (Report.campaign_to_string ~verbose:true resumed))

let test_resume_rejects_foreign_journal () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "{\"journal\": \"something-else\", \"version\": 1}\n";
      close_out oc;
      check_bool "foreign journal rejected" true
        (try ignore (Faultcamp.resume path); false with Failure _ -> true));
  with_temp_file (fun path ->
      let w =
        Journal.create ~path
          ~header:
            [
              ("journal", Journal.String "faultcamp");
              ("version", Journal.Int 1);
              ("workload", Journal.String "vecadd");
              ("seed", Journal.Int 9);
              ("faults", Journal.Int 4);
              ("max_cycles_factor", Journal.Int 4);
            ]
      in
      (* An entry whose recorded fault does not match the regenerated
         plan: resuming must fail loudly, not silently mix campaigns. *)
      Journal.append w
        [
          ("task", Journal.Int 0);
          ("fault", Journal.String "not a real fault description");
          ("outcome", Journal.String "survived");
          ("cycles", Journal.Int 1);
        ];
      Journal.close w;
      check_bool "plan mismatch rejected" true
        (try ignore (Faultcamp.resume path); false with Failure _ -> true))

(* --- qcheck: truncate anywhere, resume, identical report ----------------- *)

let prop_truncated_journal_resumes_identically =
  QCheck2.Test.make ~name:"resume after random journal truncation" ~count:6
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 0 1000) bool)
    (fun (seed, cut_salt, parallel) ->
      let jobs = if parallel then 4 else 1 in
      with_temp_file (fun path ->
          let fresh =
            Faultcamp.campaign ~jobs ~journal_path:path
              { Faultcamp.default_config with seed; faults = 6 }
              (vecadd_case ())
          in
          let fresh_report = Report.campaign_to_string ~verbose:true fresh in
          (* Truncate the journal at an arbitrary byte offset past the
             header — including mid-line, leaving a torn tail. *)
          let contents =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let header_len = String.index contents '\n' + 1 in
          let cut =
            header_len + (cut_salt mod (String.length contents - header_len + 1))
          in
          let oc = open_out_bin path in
          output_string oc (String.sub contents 0 cut);
          close_out oc;
          let resumed = Faultcamp.resume ~jobs path in
          Report.campaign_to_string ~verbose:true resumed = fresh_report))

(* --- sharded journals: torn-state recovery ------------------------------- *)

module Shard = Testinfra.Shard

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "resilience-shard-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Shard journals built in-process: [Faultcamp.campaign] under the
   shard's config is exactly what [Shard.worker] does, minus the
   process, so merge tests don't need to spawn anything. *)
let shard_config ?(campaign = seed4) ~dir ~shards case =
  { (Shard.default_config ~case ~dir ~worker_exe:"/bin/true") with
    Shard.campaign; shards }

let write_shard_journals (cfg : Shard.config) ~baseline =
  List.init cfg.Shard.shards (fun i ->
      let path = Shard.journal_path cfg i in
      ignore
        (Faultcamp.campaign ~journal_path:path
           {
             cfg.Shard.campaign with
             baseline = Some baseline;
             shard = Some (i, cfg.Shard.shards);
           }
           cfg.Shard.case);
      path)

let test_shard_merge_sigint_leaves_journals_intact () =
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let cfg = shard_config ~dir ~shards:2 case in
      let plan, baseline = Faultcamp.prepare seed4 case in
      let paths = write_shard_journals cfg ~baseline in
      let before = List.map (fun p -> (p, Journal.load p)) paths in
      let tok = Budget.token () in
      Budget.cancel tok;
      (* SIGINT raced into the merge: it must refuse before touching
         anything, with the journals kept for a later resume. *)
      check_bool "cancelled merge refuses with a named diagnostic" true
        (try
           ignore (Shard.merge_journals ~cancel:tok cfg ~baseline ~plan paths);
           false
         with Failure msg ->
           contains "interrupted" msg
           && contains "shard journals left intact" msg);
      check_bool "journals untouched" true
        (List.for_all (fun (p, l) -> Journal.load p = l) before);
      (* The same journals merge fine once the interrupt is gone —
         byte-identical to an uninterrupted run. *)
      let merged = Shard.merge_journals cfg ~baseline ~plan paths in
      check_string "post-interrupt merge is byte-identical"
        (Report.campaign_to_string ~verbose:true
           (Faultcamp.run ~seed:4 ~faults:6 case))
        (Report.campaign_to_string ~verbose:true merged))

let test_shard_merge_rejects_foreign_journal () =
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let cfg = shard_config ~dir ~shards:2 case in
      let plan, baseline = Faultcamp.prepare seed4 case in
      let paths = write_shard_journals cfg ~baseline in
      (* A journal from a different campaign (other seed) in the merge
         list: named rejection, not a silently mixed report. *)
      let foreign = Filename.concat dir "foreign.jsonl" in
      let seed9 = { seed4 with seed = 9 } in
      let _, foreign_baseline = Faultcamp.prepare seed9 case in
      ignore
        (Faultcamp.campaign ~journal_path:foreign
           { seed9 with baseline = Some foreign_baseline; shard = Some (0, 2) }
           case);
      check_bool "foreign journal named in the diagnostic" true
        (try
           ignore
             (Shard.merge_journals cfg ~baseline ~plan
                [ foreign; List.nth paths 1 ]);
           false
         with Failure msg ->
           contains "foreign shard journal" msg && contains foreign msg);
      (* A valid journal presented as the wrong shard: identity check. *)
      check_bool "swapped shards rejected" true
        (try
           ignore
             (Shard.merge_journals cfg ~baseline ~plan (List.rev paths));
           false
         with Failure msg -> contains "does not identify as shard" msg))

let test_shard_merge_truncated_journal_degrades () =
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let cfg = shard_config ~dir ~shards:2 case in
      let plan, baseline = Faultcamp.prepare seed4 case in
      let paths = write_shard_journals cfg ~baseline in
      (* Tear shard 1's journal mid-record — the crash-mid-write shape.
         The torn line drops, the lost tasks come back as cancelled, and
         the merge degrades to a partial report instead of aborting. *)
      let victim = List.nth paths 1 in
      let contents =
        let ic = open_in_bin victim in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let lines = String.split_on_char '\n' contents in
      let is_task l =
        match Journal.of_line l with
        | Some obj -> Journal.find_int obj "task" <> None
        | None -> false
      in
      let last_task =
        List.fold_left
          (fun (i, best) l -> (i + 1, if is_task l then i else best))
          (0, -1) lines
        |> snd
      in
      check_bool "journal has a task record to tear" true (last_task >= 0);
      let oc = open_out_bin victim in
      List.iteri
        (fun i l ->
          if i < last_task then (output_string oc l; output_char oc '\n')
          else if i = last_task then
            (* Half the record, no newline: the crash-mid-write shape. *)
            output_string oc (String.sub l 0 (String.length l / 2)))
        lines;
      close_out oc;
      let merged = Shard.merge_journals cfg ~baseline ~plan paths in
      check_bool "merge survives the torn journal" true
        merged.Faultcamp.interrupted;
      check_bool "lost tasks come back as cancelled" true
        (Faultcamp.cancelled merged <> []);
      check_bool "report carries the INTERRUPTED notice" true
        (contains "INTERRUPTED"
           (Report.campaign_to_string ~verbose:true merged)))

let test_shard_merge_rejects_other_parameters () =
  (* Shard journals agreeing on workload, seed and faults but run under
     another cycle factor are a different campaign: the merge must name
     them foreign, not report them under this campaign's parameters. *)
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let cfg = shard_config ~dir ~shards:2 case in
      let plan, baseline = Faultcamp.prepare seed4 case in
      let paths =
        write_shard_journals
          { cfg with Shard.campaign = { seed4 with max_cycles_factor = 1 } }
          ~baseline
      in
      check_bool "other cycle factor rejected as foreign" true
        (try
           ignore (Shard.merge_journals cfg ~baseline ~plan paths);
           false
         with Failure msg ->
           contains "foreign shard journal" msg
           && contains "max_cycles_factor" msg))

let test_shard_journal_resume_stays_in_slice () =
  (* The shard identity is part of the config the header records, so
     resuming a stopped shard journal executes only that shard's slice
     and the journal still merges. *)
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let cfg = shard_config ~dir ~shards:2 case in
      let plan, baseline = Faultcamp.prepare seed4 case in
      let paths = write_shard_journals cfg ~baseline in
      let path = List.hd paths in
      ignore
        (Faultcamp.campaign ~journal_path:path ~stop_after:1
           { seed4 with baseline = Some baseline; shard = Some (0, 2) }
           case);
      ignore (Faultcamp.resume path);
      let lo, hi = Faultcamp.shard_slice ~shards:2 ~plan 0 in
      check_bool "resumed journal holds only in-slice tasks" true
        (List.for_all
           (fun e ->
             match Journal.find_int e "task" with
             | Some t -> t >= lo && t < hi
             | None -> true)
           (snd (Faultcamp.load_journal path)));
      check_string "resumed shard still merges byte-identically"
        (Report.campaign_to_string ~verbose:true
           (Faultcamp.run ~seed:4 ~faults:6 case))
        (Report.campaign_to_string ~verbose:true
           (Shard.merge_journals cfg ~baseline ~plan paths)))

(* --- qcheck: any shard count merges byte-identically ---------------------- *)

let prop_shard_merge_any_count =
  QCheck2.Test.make ~name:"shard merge identical at any shard count" ~count:15
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 0 12) (int_range 1 5))
    (fun (seed, faults, shards) ->
      with_temp_dir (fun dir ->
          let case = vecadd_case () in
          let campaign = { Faultcamp.default_config with seed; faults } in
          let cfg = shard_config ~campaign ~dir ~shards case in
          let plan, baseline = Faultcamp.prepare campaign case in
          let paths = write_shard_journals cfg ~baseline in
          Report.campaign_to_string ~verbose:true
            (Shard.merge_journals cfg ~baseline ~plan paths)
          = Report.campaign_to_string ~verbose:true
              (Faultcamp.run ~seed ~faults case)))

(* --- the journal header is the config ------------------------------------ *)

let test_header_round_trips () =
  let _, baseline = Faultcamp.prepare seed4 (vecadd_case ()) in
  List.iter
    (fun (name, config) ->
      check_bool name true
        (Faultcamp.header_of_obj
           (Faultcamp.header_obj ~workload:"vecadd" config)
        = Some ("vecadd", config)))
    [
      ("default config round-trips", Faultcamp.default_config);
      ( "profile, baseline and shard round-trip",
        {
          seed4 with
          backend = Faultcamp.Auto;
          deadline_seconds = 0.1234567;
          deadline_profile = [ ("bit-flip", 0.5); ("mem-corrupt", 0.1234567) ];
          baseline = Some baseline;
          shard = Some (1, 3);
        } );
    ];
  (* Worker argv and profiles render seconds this way: short where "%g"
     is exact, every bit kept where it is not. *)
  check_string "exact seconds stay short" "0.05"
    (Budget.seconds_to_string 0.05);
  check_bool "inexact seconds keep every bit" true
    (float_of_string (Budget.seconds_to_string 0.1234567) = 0.1234567)

let test_header_before_compiled_backend_loads () =
  (* The five keys every journal has carried since the first: the rest
     take their defaults, and the backend is the interpreter. *)
  let legacy =
    [
      ("journal", Journal.String "faultcamp");
      ("workload", Journal.String "gcd8");
      ("seed", Journal.Int 3);
      ("faults", Journal.Int 7);
      ("max_cycles_factor", Journal.Int 5);
    ]
  in
  check_bool "five-key header loads with the defaults" true
    (Faultcamp.header_of_obj legacy
    = Some
        ( "gcd8",
          {
            Faultcamp.default_config with
            seed = 3;
            faults = 7;
            max_cycles_factor = 5;
            backend = Faultcamp.Interp;
          } ))

let test_header_line_pinned () =
  (* Recorded from `fpgatest campaign -w gcd8 -n 5 --seed 1 --journal F`
     before the header became the config record: same keys, same order,
     same bytes. *)
  let pinned =
    {|{"journal":"faultcamp","version":1,"workload":"gcd8","seed":1,"faults":5,"max_cycles_factor":4,"deadline_seconds":60,"slice_cycles":5000,"max_retries":2,"backoff_seconds":0.050000000000000003,"backend":"auto","clean_cycles":156,"clean_oob":0,"baseline":"c6650f642eccf31e"}|}
  in
  with_temp_file (fun path ->
      ignore
        (Faultcamp.campaign ~journal_path:path
           {
             Faultcamp.default_config with
             faults = 5;
             backend = Faultcamp.Auto;
           }
           (gcd8_case ()));
      check_string "gcd8 header line" pinned
        (In_channel.with_open_text path In_channel.input_line
        |> Option.value ~default:""))

(* --- journal compaction -------------------------------------------------- *)

let copy_file src dst =
  let ic = open_in_bin src in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

let test_compaction_round_trip () =
  with_temp_dir (fun dir ->
      let case = vecadd_case () in
      let path = Filename.concat dir "campaign.jsonl" in
      ignore
        (Faultcamp.campaign ~journal_path:path ~stop_after:2 seed4 case);
      (* Worker leftovers: heartbeat lines and a re-executed (duplicate)
         task entry, appended after the status footer. *)
      let entries =
        List.filter
          (fun e -> Journal.find_int e "task" <> None)
          (snd (Faultcamp.load_journal path))
      in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"hb\": 17}\n";
      output_string oc (Journal.to_line (List.hd entries) ^ "\n");
      output_string oc "{\"hb\": 18}\n";
      close_out oc;
      check_bool "dirty journal needs compaction" true
        (Faultcamp.needs_compaction path);
      let uncompacted = Filename.concat dir "uncompacted.jsonl" in
      copy_file path uncompacted;
      let before, after = Faultcamp.compact path in
      check_bool "compaction shrinks the journal" true (after < before);
      check_bool "compacted journal is a fixpoint" true
        (not (Faultcamp.needs_compaction path));
      (* The satellite contract: resuming the compacted journal and the
         dirty one produce byte-identical reports — both equal to an
         uninterrupted run. *)
      let report p =
        Report.campaign_to_string ~verbose:true (Faultcamp.resume p)
      in
      let fresh =
        Report.campaign_to_string ~verbose:true
          (Faultcamp.run ~seed:4 ~faults:6 case)
      in
      check_string "compacted resume equals uncompacted resume" (report path)
        (report uncompacted);
      check_string "both equal the uninterrupted run" fresh (report path))

(* --- clean-run baseline checkpoints -------------------------------------- *)

let test_baseline_checkpoint_accept_and_reject () =
  let case = vecadd_case () in
  let _, baseline = Faultcamp.prepare seed4 case in
  check_bool "wire spelling round-trips" true
    (Faultcamp.baseline_of_string (Faultcamp.baseline_to_string baseline)
    = Some baseline);
  check_bool "junk wire spelling rejected" true
    (Faultcamp.baseline_of_string "not:a:baseline:at:all" = None);
  (* A matching checkpoint skips the clean hardware run but must change
     nothing about the report. *)
  let with_baseline =
    Faultcamp.campaign { seed4 with baseline = Some baseline } case
  in
  let without = Faultcamp.run ~seed:4 ~faults:6 case in
  check_string "baseline-checkpointed report identical"
    (Report.campaign_to_string ~verbose:true without)
    (Report.campaign_to_string ~verbose:true with_baseline);
  (* A stale checkpoint (the workload changed under the journal): a
     one-line rejection naming the hashes, not a mystery mismatch later. *)
  let stale = { baseline with Faultcamp.b_hash = "deadbeef" } in
  check_bool "mismatched hash rejected in one line" true
    (try
       ignore (Faultcamp.campaign { seed4 with baseline = Some stale } case);
       false
     with Failure msg ->
       contains "baseline hash mismatch" msg
       && not (String.contains msg '\n'))

(* --- per-class deadline profiles ----------------------------------------- *)

let test_deadline_profile_validated_and_journaled () =
  let case = vecadd_case () in
  check_bool "unknown class rejected up front" true
    (try
       ignore
         (Faultcamp.campaign
            {
              Faultcamp.default_config with
              faults = 2;
              deadline_profile = [ ("nosuch", 1.) ];
            }
            case);
       false
     with Invalid_argument msg -> contains "unknown fault class" msg);
  check_bool "negative seconds rejected up front" true
    (try
       ignore
         (Faultcamp.campaign
            {
              Faultcamp.default_config with
              faults = 2;
              deadline_profile = [ ("bit-flip", -1.) ];
            }
            case);
       false
     with Invalid_argument _ -> true);
  (* The profile rides the journal header, so a resume enforces the same
     per-class deadlines without re-passing the flag. *)
  with_temp_file (fun path ->
      let profile = [ ("bit-flip", 0.5); ("mem-corrupt", 2.) ] in
      ignore
        (Faultcamp.campaign ~journal_path:path
           { seed4 with deadline_profile = profile }
           case);
      let (_, header), _ = Faultcamp.load_journal path in
      check_bool "profile round-trips through the header" true
        (header.Faultcamp.deadline_profile = profile))

(* --- suite resilience ---------------------------------------------------- *)

let mini_cases () =
  [
    {
      Suite.case_name = "mini1";
      source = "program mini1 width 8; mem m[2]; var a; a = 3; m[0] = a;";
      inits = [];
    };
    {
      Suite.case_name = "mini2";
      source = "program mini2 width 8; mem m[2]; var a; a = 5; m[1] = a;";
      inits = [];
    };
  ]

let suite_matrix (results, (summary : Suite.summary)) =
  ( List.map
      (fun (r : Suite.case_result) ->
        ( r.Suite.case_name_r,
          List.map
            (fun (v, verdict) -> (v, Suite.verdict_passed verdict))
            r.Suite.outcomes ))
      results,
    summary.Suite.failures,
    summary.Suite.cancelled )

let test_suite_journal_and_resume () =
  with_temp_file (fun path ->
      let variants = [ List.hd Suite.default_variants ] in
      let fresh = Suite.run ~variants ~journal_path:path (mini_cases ()) in
      let resumed =
        Suite.run ~variants ~journal_path:path ~resume:true (mini_cases ())
      in
      check_bool "replayed matrix equals executed matrix" true
        (suite_matrix fresh = suite_matrix resumed);
      check_bool "resumed cells are replayed, not re-verified" true
        (List.for_all
           (fun (r : Suite.case_result) ->
             List.for_all
               (fun (_, v) -> match v with Suite.Replayed _ -> true | _ -> false)
               r.Suite.outcomes)
           (fst resumed));
      (* A journal written for a different matrix must be rejected. *)
      check_bool "mismatched matrix rejected" true
        (try
           ignore
             (Suite.run ~variants ~journal_path:path ~resume:true
                (List.tl (mini_cases ())));
           false
         with Failure _ -> true))

let test_suite_precancelled_renders_canc () =
  let tok = Budget.token () in
  Budget.cancel tok;
  let variants = [ List.hd Suite.default_variants ] in
  let results, summary = Suite.run ~variants ~cancel:tok (mini_cases ()) in
  check_int "every cell cancelled" 2 summary.Suite.cancelled;
  check_bool "no failures from cancellation" true (summary.Suite.failures = []);
  let text = Suite.render (results, summary) in
  check_bool "renders CANC cells" true
    (let needle = "CANC" in
     let n = String.length needle and h = String.length text in
     let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
     go 0)

let suite =
  [
    Alcotest.test_case "cycle budget pins" `Quick test_cycle_budget_pins;
    Alcotest.test_case "saturating mul" `Quick test_saturating_mul;
    Alcotest.test_case "budget check precedence" `Quick
      test_budget_check_precedence;
    Alcotest.test_case "failure labels stable" `Quick
      test_failure_labels_stable;
    Alcotest.test_case "journal round trip" `Quick test_journal_round_trip;
    Alcotest.test_case "journal torn tail dropped" `Quick
      test_journal_torn_tail_dropped;
    Alcotest.test_case "sliced simulation equivalent" `Quick
      test_sliced_simulation_equivalent;
    Alcotest.test_case "wall watchdog kills nonterminating design" `Quick
      test_wall_watchdog_kills_nonterminating_design;
    Alcotest.test_case "campaign classifies wall timeouts" `Slow
      test_campaign_wall_watchdog_classifies_timeouts;
    Alcotest.test_case "transient crash recovers" `Quick
      test_retry_transient_crash_recovers;
    Alcotest.test_case "identical crash quarantined" `Quick
      test_identical_crash_quarantined;
    Alcotest.test_case "distinct crashes exhaust retries" `Quick
      test_distinct_crashes_exhaust_retries;
    Alcotest.test_case "precancelled campaign cancels everything" `Quick
      test_precancelled_campaign_is_all_cancelled;
    Alcotest.test_case "stop-after then resume" `Quick
      test_stop_after_then_resume;
    Alcotest.test_case "resume rejects foreign journal" `Quick
      test_resume_rejects_foreign_journal;
    QCheck_alcotest.to_alcotest prop_truncated_journal_resumes_identically;
    Alcotest.test_case "shard merge interrupted by SIGINT" `Quick
      test_shard_merge_sigint_leaves_journals_intact;
    Alcotest.test_case "shard merge rejects foreign journal" `Quick
      test_shard_merge_rejects_foreign_journal;
    Alcotest.test_case "shard merge survives truncated journal" `Quick
      test_shard_merge_truncated_journal_degrades;
    Alcotest.test_case "shard merge rejects other parameters" `Quick
      test_shard_merge_rejects_other_parameters;
    Alcotest.test_case "shard journal resume stays in slice" `Quick
      test_shard_journal_resume_stays_in_slice;
    QCheck_alcotest.to_alcotest prop_shard_merge_any_count;
    Alcotest.test_case "header round trips" `Quick test_header_round_trips;
    Alcotest.test_case "header before compiled backend loads" `Quick
      test_header_before_compiled_backend_loads;
    Alcotest.test_case "header line pinned" `Quick test_header_line_pinned;
    Alcotest.test_case "compaction round trip" `Quick
      test_compaction_round_trip;
    Alcotest.test_case "baseline checkpoint accept and reject" `Quick
      test_baseline_checkpoint_accept_and_reject;
    Alcotest.test_case "deadline profile validated and journaled" `Quick
      test_deadline_profile_validated_and_journaled;
    Alcotest.test_case "suite journal and resume" `Quick
      test_suite_journal_and_resume;
    Alcotest.test_case "suite precancelled renders CANC" `Quick
      test_suite_precancelled_renders_canc;
  ]
