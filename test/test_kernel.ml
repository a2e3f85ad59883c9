(* Pins the event kernel's work counts and checks its scheduling order.

   The counts were recorded before the kernel's run queue and staging
   were rewritten; any change to them means the kernel no longer
   simulates the same events, activations or deltas. *)

open Sim
module Suite = Testinfra.Suite
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate

(* Table I at paper size with the seed-1 inputs perfbench's suite-verify
   workload draws. *)
let table1_cases () =
  let img = Workloads.Fdct.make_image ~width_px:64 ~height_px:64 ~seed:1 in
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
      inits = [ ("input", Workloads.Hamming.make_codewords ~n:2048 ~seed:1) ];
    };
  ]

(* (case/variant, verdict, per configuration
   "name:cycles/events/activations/deltas/time_points/collisions"). *)
let expected =
  [
    ("fdct1/plain", "PASS", "fdct1:3524/348710/391558/27321/7048/0");
    ("fdct1/shared", "PASS", "fdct1:3524/362066/443689/33562/7048/0");
    ("fdct1/optimized", "PASS", "fdct1:3524/348609/391457/27258/7048/0");
    ("fdct1/folded", "PASS", "fdct1:3524/348710/391558/27321/7048/0");
    ("fdct2/plain", "PASS", "fdct2_p1:1762/108962/153283/12980/3524/0 fdct2_p2:1762/108937/153258/12976/3524/0");
    ("fdct2/shared", "PASS", "fdct2_p1:1762/151817/180271/16664/3524/0 fdct2_p2:1762/151957/180411/16699/3524/0");
    ("fdct2/optimized", "PASS", "fdct2_p1:1762/108959/153280/12949/3524/0 fdct2_p2:1762/108935/153256/12945/3524/0");
    ("fdct2/folded", "PASS", "fdct2_p1:1762/108962/153283/12980/3524/0 fdct2_p2:1762/108937/153258/12976/3524/0");
    ("hamming/plain", "PASS", "hamming:1431/44682/59164/8699/2862/0");
    ("hamming/shared", "PASS", "hamming:1431/57274/63164/11767/2862/0");
    ("hamming/optimized", "PASS", "hamming:1431/44681/59163/8699/2862/0");
    ("hamming/folded", "PASS", "hamming:1431/44682/59164/8699/2862/0");
    ("vecadd/plain", "PASS", "vecadd:98/1441/1959/556/196/0");
    ("vecadd/shared", "PASS", "vecadd:98/1797/2117/681/196/0");
    ("vecadd/optimized", "PASS", "vecadd:98/1441/1959/556/196/0");
    ("vecadd/folded", "PASS", "vecadd:98/1441/1959/556/196/0");
    ("sum/plain", "PASS", "sum:68/964/1113/436/136/0");
    ("sum/shared", "PASS", "sum:68/1227/1238/483/136/0");
    ("sum/optimized", "PASS", "sum:68/964/1113/436/136/0");
    ("sum/folded", "PASS", "sum:68/964/1113/436/136/0");
    ("gcd/plain", "PASS", "gcd:156/2904/3292/947/312/0");
    ("gcd/shared", "PASS", "gcd:156/3565/3482/1045/312/0");
    ("gcd/optimized", "PASS", "gcd:156/2903/3291/947/312/0");
    ("gcd/folded", "PASS", "gcd:156/2904/3292/947/312/0");
    ("sort/plain", "PASS", "sort:411/7623/8602/2734/822/0");
    ("sort/shared", "PASS", "sort:411/9838/9581/3026/822/0");
    ("sort/optimized", "PASS", "sort:411/7623/8602/2734/822/0");
    ("sort/folded", "PASS", "sort:411/7623/8602/2734/822/0");
    ("fir/plain", "PASS", "fir:980/20356/27470/6149/1960/0");
    ("fir/shared", "PASS", "fir:980/26327/29517/6607/1960/0");
    ("fir/optimized", "PASS", "fir:980/20356/27470/6149/1960/0");
    ("fir/folded", "PASS", "fir:980/20356/27470/6149/1960/0");
    ("edges/plain", "PASS", "edges:2612/63593/72424/18247/5224/0");
    ("edges/shared", "PASS", "edges:2612/91103/89482/23671/5224/0");
    ("edges/optimized", "PASS", "edges:2612/63594/72425/18247/5224/0");
    ("edges/folded", "PASS", "edges:2612/63593/72424/18247/5224/0");
    ("FDCT1/plain", "PASS", "fdct1:54788/5424525/6091373/426689/109576/0");
    ("FDCT2/plain", "PASS", "fdct2_p1:27394/1693238/2382775/202796/54788/0 fdct2_p2:27394/1693039/2382576/202738/54788/0");
    ("Hamming/plain", "PASS", "hamming:45740/1423443/1886967/277178/91480/0");
  ]

let observe (case : Suite.case) (vname, options) =
  let v = Verify.run_source ~options ~inits:case.Suite.inits case.Suite.source in
  let config (r : Simulate.config_run) =
    let s = r.Simulate.sim_stats in
    Printf.sprintf "%s:%d/%d/%d/%d/%d/%d" r.Simulate.cfg_name r.Simulate.cycles
      s.Engine.events s.Engine.activations s.Engine.deltas s.Engine.time_points
      s.Engine.drive_collisions
  in
  ( case.Suite.case_name ^ "/" ^ vname,
    (if v.Verify.passed then "PASS" else "FAIL"),
    String.concat " " (List.map config v.Verify.hw_run.Simulate.runs) )

let check_pinned cells () =
  List.iter
    (fun ((case : Suite.case), variant) ->
      let label, verdict, counts = observe case variant in
      match List.find_opt (fun (l, _, _) -> l = label) expected with
      | None -> Alcotest.failf "%s has no pinned counts" label
      | Some (_, want_verdict, want_counts) ->
          Alcotest.(check string) (label ^ " verdict") want_verdict verdict;
          Alcotest.(check string) (label ^ " counts") want_counts counts)
    cells

let builtin_cells () =
  List.concat_map
    (fun case -> List.map (fun v -> (case, v)) Suite.default_variants)
    (Suite.builtin_cases ())

let table1_cells () =
  List.map (fun case -> (case, List.hd Suite.default_variants)) (table1_cases ())

(* --- scheduling order over random process networks ------------------- *)

type action =
  | Drive of int * int * int  (* signal, delay, addend *)
  | Wake of int * int  (* process, delay *)
  | Sense of int * int  (* process, signal: add_sensitivity at run time *)

type net = {
  n_signals : int;
  procs : (int list * action list) list;  (* sensitivity, actions *)
}

let gen_net =
  let open QCheck2.Gen in
  let* n_signals = int_range 1 6 in
  (* Over 63 processes the run queue spans several bitset words. *)
  let* n_procs = oneof [ int_range 1 8; int_range 60 140 ] in
  let signal = int_bound (n_signals - 1) and proc = int_bound (n_procs - 1) in
  let action =
    oneof
      [
        map3 (fun s d c -> Drive (s, d, c)) signal (oneofl [ 0; 0; 1; 3 ])
          (int_bound 7);
        map2 (fun p d -> Wake (p, d)) proc (oneofl [ 0; 0; 2 ]);
        map2 (fun p s -> Sense (p, s)) proc signal;
      ]
  in
  let+ procs =
    list_repeat n_procs
      (pair (list_size (int_bound 3) signal) (list_size (int_bound 3) action))
  in
  { n_signals; procs }

let print_net net =
  Printf.sprintf "%d signals, %d processes" net.n_signals (List.length net.procs)

(* Runs the network; each activation logs (delta number, creation index).
   A process acts on its first four activations only, so every network
   settles. *)
let run_net net =
  let engine = Engine.create () in
  let signals =
    Array.init net.n_signals (fun i ->
        Engine.signal engine ~name:(Printf.sprintf "s%d" i) 3)
  in
  let procs = Array.make (List.length net.procs) None in
  let proc q = Option.get procs.(q) in
  let log = ref [] in
  List.iteri
    (fun i (sensitivity, actions) ->
      let runs = ref 0 in
      let act = function
        | Drive (s, delay, c) ->
            let sum =
              Array.fold_left (fun a sg -> a + Engine.value_int sg) c signals
            in
            Engine.drive engine signals.(s) ~delay (Bitvec.create ~width:3 sum)
        | Wake (q, delay) -> Engine.wake_at engine (proc q) ~delay
        | Sense (q, s) -> Engine.add_sensitivity (proc q) signals.(s)
      in
      let body () =
        log := ((Engine.stats engine).Engine.deltas, i) :: !log;
        incr runs;
        if !runs <= 4 then List.iter act actions
      in
      procs.(i) <-
        Some
          (Engine.process engine ~name:(Printf.sprintf "p%d" i)
             ~sensitivity:(List.map (fun s -> signals.(s)) sensitivity)
             body))
    net.procs;
  ignore (Engine.run engine);
  List.rev !log

let prop_pid_order =
  QCheck2.Test.make ~name:"each delta runs its processes once, in pid order"
    ~count:200 ~print:print_net gen_net (fun net ->
      let rec ascending = function
        | (d1, p1) :: ((d2, p2) :: _ as rest) ->
            (d1 <> d2 || p1 < p2) && ascending rest
        | [ _ ] | [] -> true
      in
      ascending (run_net net))

(* A zero-delay wake-up of a process still waiting in the current delta
   is absorbed; a process waking itself runs again in the next delta. *)
let test_wake_pending_process () =
  let engine = Engine.create () in
  let log = ref [] in
  let later = ref None in
  let self_woken = ref false in
  let rec first =
    lazy
      (Engine.process engine ~name:"first" (fun () ->
           log := ("first", (Engine.stats engine).Engine.deltas) :: !log;
           Engine.wake_at engine (Option.get !later) ~delay:0;
           if not !self_woken then begin
             self_woken := true;
             Engine.wake_at engine (Lazy.force first) ~delay:0
           end))
  in
  ignore (Lazy.force first);
  later :=
    Some
      (Engine.process engine ~name:"later" (fun () ->
           log := ("later", (Engine.stats engine).Engine.deltas) :: !log));
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string int)))
    "activations"
    [ ("first", 1); ("later", 1); ("first", 2); ("later", 3) ]
    (List.rev !log)

let suite =
  [
    Alcotest.test_case "pinned counts: builtin cases x variants" `Quick
      (fun () -> check_pinned (builtin_cells ()) ());
    Alcotest.test_case "pinned counts: Table I at paper size, plain" `Quick
      (fun () -> check_pinned (table1_cells ()) ());
    Alcotest.test_case "wake-up of a pending process is absorbed" `Quick
      test_wake_pending_process;
    QCheck_alcotest.to_alcotest prop_pid_order;
  ]
