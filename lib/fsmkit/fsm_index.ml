(* A guard with its status names resolved to input positions. *)
type guard =
  | True
  | Test of { input : int; op : Guard.cmp; value : int }
  | Not of guard
  | And of guard * guard
  | Or of guard * guard

type t = {
  fsm : Fsm.t;
  states : Fsm.state array;
  initial : int;
  guards : guard array array;  (* state -> transitions, in order *)
  targets : int array array;
}

(* Name -> position in [names] (the first, for a repeated name). *)
let positions what names =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun i n -> if not (Hashtbl.mem table n) then Hashtbl.add table n i)
    names;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Fsm_index: undeclared %s %S" what name)

let create (fsm : Fsm.t) =
  let states = Array.of_list fsm.Fsm.states in
  let state = positions "state" (List.map (fun s -> s.Fsm.sname) fsm.Fsm.states) in
  let input = positions "input" (List.map (fun i -> i.Fsm.io_name) fsm.Fsm.inputs) in
  let rec resolve : Guard.t -> guard = function
    | Guard.True -> True
    | Guard.Test { signal; op; value } -> Test { input = input signal; op; value }
    | Guard.Not g -> Not (resolve g)
    | Guard.And (a, b) -> And (resolve a, resolve b)
    | Guard.Or (a, b) -> Or (resolve a, resolve b)
  in
  let transitions f =
    Array.map (fun st -> Array.of_list (List.map f st.Fsm.transitions)) states
  in
  {
    fsm;
    states;
    initial = state fsm.Fsm.initial;
    guards = transitions (fun tr -> resolve tr.Fsm.guard);
    targets = transitions (fun tr -> state tr.Fsm.target);
  }

let state_count ix = Array.length ix.states
let state ix s = ix.states.(s)
let initial ix = ix.initial
let is_done ix s = ix.states.(s).Fsm.is_done

let vectors ix ~widths =
  let outputs = ix.fsm.Fsm.outputs in
  let output = positions "output" (List.map (fun o -> o.Fsm.io_name) outputs) in
  let shared = Hashtbl.create 16 in
  let vector o v =
    let key = (widths.(o), v) in
    match Hashtbl.find_opt shared key with
    | Some bv -> bv
    | None ->
        let bv = Bitvec.create ~width:widths.(o) v in
        Hashtbl.add shared key bv;
        bv
  in
  Array.map
    (fun st ->
      let values = Array.of_list (List.map (fun o -> o.Fsm.default) outputs) in
      List.iter
        (fun (name, v) -> values.(output name) <- v)
        st.Fsm.settings;
      Array.mapi vector values)
    ix.states

let rec holds g read =
  match g with
  | True -> true
  | Test { input; op; value } -> (
      let v = read input in
      match op with
      | Guard.Ceq -> v = value
      | Cne -> v <> value
      | Clt -> v < value
      | Cle -> v <= value
      | Cgt -> v > value
      | Cge -> v >= value)
  | Not g -> not (holds g read)
  | And (a, b) -> holds a read && holds b read
  | Or (a, b) -> holds a read || holds b read

let next ix s read =
  let guards = ix.guards.(s) in
  let rec first i =
    if i = Array.length guards then s
    else if holds guards.(i) read then ix.targets.(s).(i)
    else first (i + 1)
  in
  first 0
