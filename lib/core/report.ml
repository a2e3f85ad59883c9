let verification ppf (v : Verify.t) =
  let prog = v.Verify.compiled.Compiler.Compile.program in
  Format.fprintf ppf "=== verification of %S: %s ===@."
    prog.Lang.Ast.prog_name
    (if v.Verify.passed then "PASS" else "FAIL");
  Format.fprintf ppf "golden model: %d statements, %d reads, %d writes (%.3fs)@."
    v.Verify.golden_stats.Lang.Interp.statements
    v.Verify.golden_stats.Lang.Interp.mem_reads
    v.Verify.golden_stats.Lang.Interp.mem_writes v.Verify.golden_seconds;
  List.iter
    (fun (r : Simulate.config_run) ->
      Format.fprintf ppf
        "configuration %s: %s in %d cycles (%.3fs, %d events, final state %s)@."
        r.Simulate.cfg_name
        (if r.Simulate.completed then "completed" else "DID NOT complete")
        r.Simulate.cycles r.Simulate.wall_seconds
        r.Simulate.sim_stats.Sim.Engine.events r.Simulate.final_state)
    v.Verify.hw_run.Simulate.runs;
  List.iter
    (fun (m : Verify.memory_result) ->
      if m.Verify.matches then
        Format.fprintf ppf "memory %-12s OK@." m.Verify.mem_name
      else begin
        Format.fprintf ppf "memory %-12s %d mismatches@." m.Verify.mem_name
          m.Verify.mismatch_count;
        List.iter
          (fun (addr, golden, got) ->
            Format.fprintf ppf "  [%d] golden=%d simulated=%d@." addr golden got)
          m.Verify.mismatches
      end)
    v.Verify.memories;
  if
    v.Verify.golden_stats.Lang.Interp.asserts_failed > 0
    || v.Verify.hw_check_failures > 0
  then
    Format.fprintf ppf
      "assertions: %d violated in software, %d checks fired in hardware@."
      v.Verify.golden_stats.Lang.Interp.asserts_failed v.Verify.hw_check_failures;
  if v.Verify.golden_oob > 0 || v.Verify.hw_oob > 0 then
    Format.fprintf ppf
      "out-of-range accesses: %d in software, %d in hardware%s@."
      v.Verify.golden_oob v.Verify.hw_oob
      (if v.Verify.oob_failed then " (FAIL)" else " (warning)");
  Format.fprintf ppf "total: %d cycles, %.3fs simulation@."
    v.Verify.hw_run.Simulate.total_cycles
    v.Verify.hw_run.Simulate.total_wall_seconds

let verification_to_string v = Format.asprintf "%a" verification v

(* Everything printed here is a pure function of the campaign's
   deterministic fields — the mutant list, outcomes and rates — never of
   wall-clock or worker count, so the rendered report is byte-identical
   for a given seed at any [jobs]. Timing lives in
   [Metrics.campaign_timing], which the CLI keeps on stderr. *)
let campaign ?(verbose = false) ppf (c : Faultcamp.t) =
  Format.fprintf ppf "=== mutation campaign: %s (seed=%d) ===@."
    c.Faultcamp.workload c.Faultcamp.config.Faultcamp.seed;
  Format.fprintf ppf "clean run: PASS in %d cycles (hw oob baseline %d)@."
    c.Faultcamp.clean_cycles c.Faultcamp.clean_oob;
  Format.fprintf ppf "faults: %d planned of %d requested@.@."
    (List.length c.Faultcamp.mutants)
    c.Faultcamp.config.Faultcamp.faults;
  if verbose then begin
    List.iter
      (fun (m : Faultcamp.mutant) ->
        Format.fprintf ppf "%-40s %s (%d cycles)@."
          (Faults.Fault.describe m.Faultcamp.fault)
          (Faultcamp.outcome_to_string m.Faultcamp.outcome)
          m.Faultcamp.mutant_cycles)
      c.Faultcamp.mutants;
    Format.fprintf ppf "@."
  end;
  Format.fprintf ppf "%s" (Metrics.campaign_table c);
  (match Faultcamp.crashes c with
  | [] -> ()
  | crashes ->
      Format.fprintf ppf "@.crashed mutants (%d, counted as detected):@."
        (List.length crashes);
      List.iter
        (fun (m : Faultcamp.mutant) ->
          Format.fprintf ppf "  %s: %s%s@."
            (Faults.Fault.describe m.Faultcamp.fault)
            (Faultcamp.outcome_to_string m.Faultcamp.outcome)
            (if m.Faultcamp.quarantined then " [quarantined]"
             else
               Printf.sprintf " [after %d retries]" m.Faultcamp.retries))
        crashes);
  (match Faultcamp.retried_ok c with
  | [] -> ()
  | recovered ->
      Format.fprintf ppf
        "@.recovered after retry (%d, transient crashes):@."
        (List.length recovered);
      List.iter
        (fun (m : Faultcamp.mutant) ->
          Format.fprintf ppf "  %s: %s (retries=%d)@."
            (Faults.Fault.describe m.Faultcamp.fault)
            (Faultcamp.outcome_to_string m.Faultcamp.outcome)
            m.Faultcamp.retries)
        recovered);
  (match Faultcamp.survivors c with
  | [] -> ()
  | survivors ->
      Format.fprintf ppf "@.surviving mutants (%d):@." (List.length survivors);
      List.iter
        (fun (m : Faultcamp.mutant) ->
          Format.fprintf ppf "  %s@."
            (Faults.Fault.describe m.Faultcamp.fault))
        survivors);
  (match Faultcamp.cancelled c with
  | [] -> ()
  | cancelled ->
      Format.fprintf ppf
        "@.campaign INTERRUPTED: %d mutant%s not executed (resume with the \
         journal to finish)@."
        (List.length cancelled)
        (if List.length cancelled = 1 then "" else "s"));
  Format.fprintf ppf "@.kill rate: %.1f%%%s@."
    (100. *. c.Faultcamp.kill_rate)
    (if c.Faultcamp.interrupted then " (partial)" else "")

let campaign_to_string ?verbose c =
  Format.asprintf "%a" (fun ppf -> campaign ?verbose ppf) c

(* Plain data in, text out — this must not depend on [Shard] (which
   depends on this module); the coordinator passes each quarantined
   shard as (index, (lo, hi), last-death diagnostic). *)
let incomplete_section = function
  | [] -> ""
  | quarantined ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf
        (Printf.sprintf
           "\nINCOMPLETE: %d shard%s quarantined after repeated worker \
            deaths; the report above covers only the completed slices\n"
           (List.length quarantined)
           (if List.length quarantined = 1 then "" else "s"));
      List.iter
        (fun (index, (lo, hi), why) ->
          Buffer.add_string buf
            (Printf.sprintf "  shard %d (tasks %d..%d): %s\n" index lo (hi - 1)
               (if why = "" then "no worker survived" else why)))
        quarantined;
      Buffer.contents buf

let one_line (v : Verify.t) =
  let prog = v.Verify.compiled.Compiler.Compile.program in
  if v.Verify.passed then
    Printf.sprintf "PASS %s (cycles=%d, sim=%.3fs)" prog.Lang.Ast.prog_name
      v.Verify.hw_run.Simulate.total_cycles
      v.Verify.hw_run.Simulate.total_wall_seconds
  else
    let first_bad =
      List.find_opt (fun m -> not m.Verify.matches) v.Verify.memories
    in
    let incomplete = not v.Verify.hw_run.Simulate.all_completed in
    Printf.sprintf "FAIL %s (%s)" prog.Lang.Ast.prog_name
      (match (incomplete, first_bad) with
      | true, _ -> "a configuration did not complete"
      | false, Some m ->
          Printf.sprintf "memory %s: %d mismatches" m.Verify.mem_name
            m.Verify.mismatch_count
      | false, None ->
          if v.Verify.oob_failed then
            Printf.sprintf "out-of-range accesses: %d software, %d hardware"
              v.Verify.golden_oob v.Verify.hw_oob
          else if
            v.Verify.hw_check_failures
            <> v.Verify.golden_stats.Lang.Interp.asserts_failed
          then
            Printf.sprintf "assertion divergence: %d software, %d hardware"
              v.Verify.golden_stats.Lang.Interp.asserts_failed
              v.Verify.hw_check_failures
          else "unknown reason")
