(* The repository benchmark: one workload per process, one client issuing
   requests back to back (closed loop), one domain.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 times whole cycles of the workload's requests and prints the
   end-to-end metrics; --trace 1 runs one cycle with each request first
   untraced and then traced, checks that both give the same outputs,
   writes the spans to perfbench/traces/W.trace.json and prints the
   per-layer metrics. The last stdout line is one JSON object {correct,
   attempted, failed, metrics}; the line before it records the run's
   parameters. Exits 1 when any output is wrong, 2 on a usage or set-up
   error. *)

open Requests

let setup_repeats = 11
let trace_dir = "perfbench/traces"

(* Every metric a traced run reports, in BENCHMARK.json's order. Layer
   times are shares of the traced request time ("_pct"), so that a layer
   a workload never enters reads 0 % rather than a constant 0 s. *)
let span_pct =
  [
    "lang.parse"; "lang.check"; "lang.golden"; "compiler.compile";
    "verify.memory_env"; "verify.compare"; "sim.event"; "cyclesim.run";
    "fastsim.compile"; "fastsim.validate"; "fastsim.run"; "faults.plan";
    "faultcamp.lane_setup"; "faultcamp.judge";
  ]

let counts =
  [
    "lang.golden_statements"; "compiler.compiles"; "sim.cycles"; "sim.events";
    "cyclesim.cycles"; "cyclesim.refused"; "fastsim.batches";
    "fastsim.lane_cycles"; "fastsim.refused"; "faults.planned";
    "faultcamp.killed"; "tv.certificates"; "tv.proved"; "absint.analyses";
    "absint.iterations"; "ec.sat_calls"; "ec.conflicts";
  ]

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let run_request tally (r : request) =
  let t0 = now () in
  let o =
    try r.run ()
    with e ->
      Printf.eprintf "%s: %s\n%!" r.label (Printexc.to_string e);
      { units = r.units_on_error; failed = r.units_on_error; wrong = 0; signature = "error" }
  in
  let seconds = now () -. t0 in
  tally.attempted <- tally.attempted + o.units;
  tally.failed <- tally.failed + o.failed;
  tally.wrong <- tally.wrong + o.wrong;
  (o, seconds)

let metric name unit_ value =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_

let print_result ~info ~correct tally metrics =
  print_endline ("{" ^ String.concat ", " info ^ "}");
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " metrics)

let untraced w ~seconds ~setup_s ~requests ~check ~info =
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  (* A whole number of cycles, fixed by --seconds and the workload's
     reference cycle time rather than by the clock, so every run times
     the same requests. *)
  let cycles =
    max 1 (int_of_float (Float.round (seconds /. w.cycle_seconds)))
  in
  (* Each request's time is its best over the cycles: on a shared host
     a burst of interference slows whichever request it lands on, and
     the best of the copies, spread over the run, filters it out. *)
  let best = Array.make (List.length requests) infinity in
  let cycle_walls =
    List.init cycles (fun _ ->
        let t0 = now () in
        List.iteri
          (fun i r -> best.(i) <- Float.min best.(i) (snd (run_request tally r)))
          requests;
        now () -. t0)
  in
  let t0 = now () in
  tally.wrong <- tally.wrong + check ();
  let check_s = now () -. t0 in
  let best = List.sort compare (Array.to_list best) in
  let n = List.length best in
  (* The highest percentile with at least ten requests beyond it. *)
  let tail_rank = max 0 (n - 11) in
  let correct = tally.wrong = 0 in
  print_result ~correct tally
    ~info:
      (info
      @ [
          Printf.sprintf "\"cycles\": %d" cycles;
          Printf.sprintf "\"tail_percentile\": %.1f"
            (100. *. float_of_int (tail_rank + 1) /. float_of_int n);
          Printf.sprintf "\"failed_frac\": %.6g"
            (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
          Printf.sprintf "\"wrong_outputs\": %d" tally.wrong;
          Printf.sprintf "\"cycle_s\": [%s]"
            (String.concat ", " (List.map (Printf.sprintf "%.3f") cycle_walls));
          Printf.sprintf "\"check_s\": %.3f" check_s;
        ])
    [
      metric "throughput" "1/s"
        (float_of_int tally.attempted /. float_of_int cycles
        /. List.fold_left ( +. ) 0. best);
      metric "latency_p50_s" "s" (median best);
      metric "latency_tail_s" "s" (List.nth best tail_rank);
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ];
  correct

let traced w ~requests ~check ~info =
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let sp = Spans.create () in
  let untraced_s = ref 0. and traced_s = ref 0. and mismatches = ref 0 in
  (* Each request runs untraced and then traced, so both sides see the
     same warm-up; shadow work runs after both and is timed apart. *)
  List.iteri
    (fun id (r : request) ->
      let u, untraced = run_request tally r in
      let t1 = now () in
      let o, shadow =
        try Spans.request sp id (fun () -> r.traced sp)
        with e ->
          Printf.eprintf "%s (traced): %s\n%!" r.label (Printexc.to_string e);
          ({ u with signature = "error" }, fun () -> ())
      in
      untraced_s := !untraced_s +. untraced;
      traced_s := !traced_s +. (now () -. t1);
      Spans.shadow sp shadow;
      if o.signature <> u.signature then begin
        incr mismatches;
        Printf.eprintf "%s: traced run gave %s, untraced %s\n%!" r.label
          o.signature u.signature
      end)
    requests;
  tally.wrong <- tally.wrong + check ();
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  Spans.write_chrome sp (Filename.concat trace_dir (w.name ^ ".trace.json"));
  let inside, shadowed = Spans.self_times sp in
  let self = Spans.get in
  let request_s = Spans.total_named sp "request" in
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) inside 0. in
  let pct x = 100. *. x /. request_s in
  let ec = [ "ec.normalize"; "ec.blast"; "ec.solve" ] in
  let absint_s = self shadowed "absint.analyze" in
  let tv_self =
    self inside "tv.certify"
    -. List.fold_left (fun a n -> a +. Spans.attributed sp n) 0. ec
    -. absint_s
  in
  let rate count secs = if secs > 0. then Spans.counted sp count /. secs else 0. in
  let correct = tally.wrong = 0 && !mismatches = 0 in
  print_result ~correct tally ~info
    (List.map (fun n -> metric (n ^ "_pct") "%" (pct (self inside n))) span_pct
    @ [
        metric "tv.self_pct" "%" (pct tv_self);
        metric "absint.analyze_pct" "%" (pct absint_s);
      ]
    @ List.map (fun n -> metric (n ^ "_pct") "%" (pct (Spans.attributed sp n))) ec
    @ List.map
        (fun p -> metric ("tv." ^ p ^ "_pct") "%" (pct (Spans.attributed sp ("tv." ^ p))))
        [ "optimize"; "share"; "fold" ]
    @ List.map (fun n -> metric n "count" (Spans.counted sp n)) counts
    @ [
        metric "sim.cycles_per_s" "1/s" (rate "sim.cycles" (self inside "sim.event"));
        metric "fastsim.lane_cycles_per_s" "1/s"
          (rate "fastsim.lane_cycles" (self inside "fastsim.run"));
        metric "trace.request_s" "s" request_s;
        metric "trace.unattributed_s" "s" (request_s -. covered);
        metric "trace.coverage_pct" "%" (pct covered);
        metric "trace.overhead_pct" "%" (100. *. ((!traced_s /. !untraced_s) -. 1.));
      ]);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME suite-verify|campaign|certify|fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) Requests.all with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        prerr_endline "bench: --workload must name a workload and --trace be 0 or 1";
        exit 2
  in
  let seed = !seed in
  let setups =
    try
      List.init (if !trace = 0 then setup_repeats else 1) (fun _ ->
          let t0 = now () in
          let r = w.setup ~seed in
          (now () -. t0, r))
    with e ->
      Printf.eprintf "bench: set-up of %s failed: %s\n" w.name
        (Printexc.to_string e);
      exit 2
  in
  let setup_s = median (List.map fst setups) in
  let requests, check = snd (List.hd (List.rev setups)) in
  let info =
    [
      Printf.sprintf "\"workload\": %S" w.name;
      Printf.sprintf "\"seed\": %d" seed;
      Printf.sprintf "\"seconds\": %g" !seconds;
      Printf.sprintf "\"trace\": %d" !trace;
      Printf.sprintf "\"host_cores\": %d" (Domain.recommended_domain_count ());
      Printf.sprintf "\"unit\": %S" w.unit_name;
      Printf.sprintf "\"requests_per_cycle\": %d" (List.length requests);
    ]
  in
  let correct =
    if !trace = 0 then
      untraced w ~seconds:!seconds ~setup_s ~requests ~check ~info
    else traced w ~requests ~check ~info
  in
  exit (if correct then 0 else 1)
