module Fsm = Fsmkit.Fsm
module Fsm_index = Fsmkit.Fsm_index
open Sim

type t = {
  index : Fsm_index.t;
  engine : Engine.t;
  controls : Engine.signal array;  (* per FSM output *)
  values : Bitvec.t array array;  (* per state: each control's value *)
  state_sig : Engine.signal;
  state_values : Bitvec.t array;  (* per state: its index on [state_sig] *)
  read : int -> int;  (* current value of FSM input i's status signal *)
  mutable state : int;
  mutable transitions : int;
  mutable cycles : int;
  mutable done_hooks : (unit -> unit) list;  (* reversed *)
}

let drive_state_outputs t =
  let values = t.values.(t.state) in
  for o = 0 to Array.length t.controls - 1 do
    Engine.drive t.engine t.controls.(o) values.(o)
  done;
  Engine.drive t.engine t.state_sig t.state_values.(t.state)

let enter t next =
  if next <> t.state then begin
    t.state <- next;
    t.transitions <- t.transitions + 1;
    drive_state_outputs t;
    if Fsm_index.is_done t.index next then
      List.iter (fun f -> f ()) (List.rev t.done_hooks)
  end

let step t =
  t.cycles <- t.cycles + 1;
  enter t (Fsm_index.next t.index t.state t.read)

let attach ?enable ~design fsm =
  Fsm.validate fsm;
  let engine = design.Elaborate.engine in
  (* The design signal an FSM port binds to: same name, same width. *)
  let bind kind signals (io : Fsm.io) =
    let signal =
      try List.assoc io.Fsm.io_name signals
      with Not_found ->
        failwith
          (Printf.sprintf "fsm %s: design has no %s %S" fsm.Fsm.fsm_name kind
             io.Fsm.io_name)
    in
    if Engine.width signal <> io.Fsm.io_width then
      failwith
        (Printf.sprintf "fsm %s: %s %s width %d <> %d" fsm.Fsm.fsm_name kind
           io.Fsm.io_name (Engine.width signal) io.Fsm.io_width);
    signal
  in
  let controls =
    Array.of_list
      (List.map (bind "control" design.Elaborate.controls) fsm.Fsm.outputs)
  in
  let statuses =
    Array.of_list
      (List.map (bind "status" design.Elaborate.statuses) fsm.Fsm.inputs)
  in
  let index = Fsm_index.create fsm in
  let state_width =
    let n = Fsm_index.state_count index in
    let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
    bits (max 0 (n - 1)) 0
  in
  let state_sig =
    Engine.signal engine ~name:(fsm.Fsm.fsm_name ^ ".state") state_width
  in
  let t =
    {
      index;
      engine;
      controls;
      values = Fsm_index.vectors index ~widths:(Array.map Engine.width controls);
      state_sig;
      state_values =
        Array.init (Fsm_index.state_count index) (fun s ->
            Bitvec.create ~width:state_width s);
      read = (fun i -> Engine.value_int statuses.(i));
      state = Fsm_index.initial index;
      transitions = 0;
      cycles = 0;
      done_hooks = [];
    }
  in
  (* Assert the initial state's outputs during elaboration. *)
  let init_process =
    Engine.process engine ~name:(fsm.Fsm.fsm_name ^ "-init") (fun () ->
        drive_state_outputs t)
  in
  ignore init_process;
  let gated_step =
    match enable with
    | None -> fun () -> step t
    | Some enable ->
        fun () -> if Engine.value_int enable = 1 then step t
  in
  ignore
    (Engine.on_rising_edge engine
       ~clock:(Clock.signal design.Elaborate.clock)
       ~name:(fsm.Fsm.fsm_name ^ "-step")
       gated_step);
  t

let current_state t = (Fsm_index.state t.index t.state).Fsm.sname
let in_done_state t = Fsm_index.is_done t.index t.state
let transitions_taken t = t.transitions
let cycles_seen t = t.cycles
let on_enter_done t f = t.done_hooks <- f :: t.done_hooks
let state_signal t = t.state_sig
