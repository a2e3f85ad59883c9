module Compile = Compiler.Compile

type row = {
  example : string;
  lo_source : int;
  lo_xml_fsm : int list;
  lo_xml_datapath : int list;
  lo_gen_fsm : int list;
  operators : int list;
  states : int list;
  sim_seconds : float list;
  total_cycles : int;
  passed : bool;
}

let collect ~source (outcome : Verify.t) =
  let compiled = outcome.Verify.compiled in
  let per_partition f = List.map f compiled.Compile.partitions in
  {
    example = compiled.Compile.program.Lang.Ast.prog_name;
    lo_source = Lang.Parser.source_line_count source;
    lo_xml_fsm =
      per_partition (fun p ->
          Xmlkit.Xml.line_count (Fsmkit.Fsm.to_xml p.Compile.fsm));
    lo_xml_datapath =
      per_partition (fun p ->
          Xmlkit.Xml.line_count (Netlist.Datapath.to_xml p.Compile.datapath));
    lo_gen_fsm =
      per_partition (fun p ->
          Transform.Codegen.line_count (Transform.Codegen.fsm p.Compile.fsm));
    operators = per_partition (fun p -> p.Compile.fu_count);
    states = per_partition (fun p -> p.Compile.state_count);
    sim_seconds =
      List.map
        (fun (r : Simulate.config_run) -> r.Simulate.wall_seconds)
        outcome.Verify.hw_run.Simulate.runs;
    total_cycles = outcome.Verify.hw_run.Simulate.total_cycles;
    passed = outcome.Verify.passed;
  }

let join fmt values = String.concat "+" (List.map fmt values)

let row_to_strings row =
  [
    row.example;
    string_of_int row.lo_source;
    join string_of_int row.lo_xml_fsm;
    join string_of_int row.lo_xml_datapath;
    join string_of_int row.lo_gen_fsm;
    join string_of_int row.operators;
    join (Printf.sprintf "%.2f") row.sim_seconds;
  ]

let header =
  [
    "Example";
    "loSource";
    "loXML FSM";
    "loXML datapath";
    "loGen FSM";
    "Operators";
    "Sim time (s)";
  ]

let tabulate ~header rows =
  let table = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc r -> max acc (String.length (List.nth r c))) 0 table
  in
  let widths = List.init cols width in
  let line r =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
         r)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line header :: sep :: List.map line rows) ^ "\n"

let render_table rows = tabulate ~header (List.map row_to_strings rows)

let campaign_header =
  [
    "Fault class"; "Injected"; "Killed"; "Survived"; "CycleTmo"; "WallTmo";
    "Cancelled"; "Crashed"; "Kill %";
  ]

(* Kill % over the mutants that actually ran to a verdict: cancelled
   ones are neither detected nor missed, they are simply unfinished. *)
let kill_cell ~detected ~executed =
  if executed = 0 then "-"
  else
    Printf.sprintf "%.0f" (100. *. float_of_int detected /. float_of_int executed)

let campaign_row (s : Faultcamp.class_stats) =
  let detected =
    s.Faultcamp.killed + s.Faultcamp.timed_out_cycles + s.Faultcamp.timed_out_wall
    + s.Faultcamp.crashed
  in
  [
    s.Faultcamp.cls;
    string_of_int s.Faultcamp.injected;
    string_of_int s.Faultcamp.killed;
    string_of_int s.Faultcamp.survived;
    string_of_int s.Faultcamp.timed_out_cycles;
    string_of_int s.Faultcamp.timed_out_wall;
    string_of_int s.Faultcamp.cancelled;
    string_of_int s.Faultcamp.crashed;
    kill_cell ~detected ~executed:(s.Faultcamp.injected - s.Faultcamp.cancelled);
  ]

let campaign_table (c : Faultcamp.t) =
  let count p =
    List.length
      (List.filter (fun (m : Faultcamp.mutant) -> p m.Faultcamp.outcome)
         c.Faultcamp.mutants)
  in
  let cancelled = count (fun o -> o = Faultcamp.Cancelled) in
  let totals =
    [
      "total";
      string_of_int (List.length c.Faultcamp.mutants);
      string_of_int
        (count (function Faultcamp.Killed _ -> true | _ -> false));
      string_of_int (List.length (Faultcamp.survivors c));
      string_of_int (count (fun o -> o = Faultcamp.Timeout_cycles));
      string_of_int (count (fun o -> o = Faultcamp.Timeout_wall));
      string_of_int cancelled;
      string_of_int (List.length (Faultcamp.crashes c));
      (let executed = List.length c.Faultcamp.mutants - cancelled in
       if executed = 0 then "-"
       else Printf.sprintf "%.0f" (100. *. c.Faultcamp.kill_rate));
    ]
  in
  tabulate ~header:campaign_header
    (List.map campaign_row c.Faultcamp.by_class @ [ totals ])

type cycle_stats = {
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
}

(* Crashed and cancelled mutants never reach a stable cycle count;
   excluding their zero placeholder keeps the mean meaningful. *)
let campaign_cycle_stats (c : Faultcamp.t) =
  let counted =
    List.filter_map
      (fun (m : Faultcamp.mutant) ->
        match m.Faultcamp.outcome with
        | Faultcamp.Crashed _ | Faultcamp.Cancelled -> None
        | _ -> Some m.Faultcamp.mutant_cycles)
      c.Faultcamp.mutants
  in
  match counted with
  | [] -> None
  | first :: rest ->
      let min_cycles = List.fold_left min first rest in
      let max_cycles = List.fold_left max first rest in
      let sum = List.fold_left ( + ) 0 counted in
      Some
        {
          min_cycles;
          max_cycles;
          mean_cycles = float_of_int sum /. float_of_int (List.length counted);
        }

let campaign_timing (c : Faultcamp.t) =
  let cycles =
    match campaign_cycle_stats c with
    | None -> "no simulated mutants"
    | Some s ->
        Printf.sprintf "mutant cycles min/mean/max %d/%.0f/%d (total %d)"
          s.min_cycles s.mean_cycles s.max_cycles c.Faultcamp.total_mutant_cycles
  in
  let resilience =
    Printf.sprintf "retries %d, quarantined %d, replayed %d"
      (List.length (Faultcamp.retried c))
      (List.length (Faultcamp.quarantined c))
      c.Faultcamp.replayed
  in
  let backend =
    (* "auto→interp" makes a silent fallback visible in the timing line
       (stderr only — the report itself stays backend-independent). *)
    let requested = c.Faultcamp.config.Faultcamp.backend in
    if requested = c.Faultcamp.backend_used then
      Faultcamp.backend_label c.Faultcamp.backend_used
    else
      Printf.sprintf "%s→%s"
        (Faultcamp.backend_label requested)
        (Faultcamp.backend_label c.Faultcamp.backend_used)
  in
  Printf.sprintf "wall %.3fs, %.1f mutants/s over %d job%s, %s backend; %s; %s"
    c.Faultcamp.wall_seconds c.Faultcamp.mutants_per_second c.Faultcamp.jobs
    (if c.Faultcamp.jobs = 1 then "" else "s")
    backend cycles resilience

let shard_timing ~shards ~workers_spawned ~respawns ~quarantined ~wall_seconds =
  Printf.sprintf
    "coordinator: %d shard%s, %d worker%s spawned (%d respawn%s), %d \
     quarantined, wall %.3fs"
    shards
    (if shards = 1 then "" else "s")
    workers_spawned
    (if workers_spawned = 1 then "" else "s")
    respawns
    (if respawns = 1 then "" else "s")
    quarantined wall_seconds
