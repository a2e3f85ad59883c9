module Xml = Xmlkit.Xml
module Q = Xmlkit.Xml_query

type transition = { guard : Guard.t; target : string }

type state = {
  sname : string;
  is_done : bool;
  settings : (string * int) list;
  transitions : transition list;
}

type io = { io_name : string; io_width : int; default : int }

type t = {
  fsm_name : string;
  inputs : io list;
  outputs : io list;
  initial : string;
  states : state list;
}

let find_state fsm name = List.find_opt (fun s -> s.sname = name) fsm.states
let state_count fsm = List.length fsm.states

let output_in_state fsm state name =
  match List.assoc_opt name state.settings with
  | Some v -> v
  | None -> (
      match List.find_opt (fun o -> o.io_name = name) fsm.outputs with
      | Some o -> o.default
      | None ->
          failwith
            (Printf.sprintf "fsm %s: undeclared output %S" fsm.fsm_name name))

let done_states fsm =
  List.filter_map (fun s -> if s.is_done then Some s.sname else None) fsm.states

(* ------------------------------------------------------------------ *)

let duplicates names =
  let sorted = List.sort compare names in
  let rec loop acc = function
    | a :: (b :: _ as rest) -> loop (if a = b then a :: acc else acc) rest
    | [ _ ] | [] -> List.sort_uniq compare acc
  in
  loop [] sorted

(* Diagnostic codes FSM001..FSM011 (structural; reachability/guard
   analyses in the [Lint] library add FSM012..). *)
let check_diags fsm =
  let diags = ref [] in
  let err ?hint ~code ~loc fmt =
    Format.kasprintf
      (fun s -> diags := Diag.error ?hint ~code ~loc "%s" s :: !diags)
      fmt
  in
  List.iter (fun n -> err ~code:"FSM001" ~loc:"" "duplicate state %S" n)
    (duplicates (List.map (fun s -> s.sname) fsm.states));
  List.iter (fun n -> err ~code:"FSM002" ~loc:"" "duplicate input %S" n)
    (duplicates (List.map (fun i -> i.io_name) fsm.inputs));
  List.iter (fun n -> err ~code:"FSM003" ~loc:"" "duplicate output %S" n)
    (duplicates (List.map (fun o -> o.io_name) fsm.outputs));
  if fsm.states = [] then err ~code:"FSM004" ~loc:"" "no states";
  if find_state fsm fsm.initial = None then
    err ~code:"FSM005" ~loc:"" "initial state %S does not exist" fsm.initial;
  let input_names = List.map (fun i -> i.io_name) fsm.inputs in
  List.iter
    (fun st ->
      List.iter
        (fun (name, value) ->
          match List.find_opt (fun o -> o.io_name = name) fsm.outputs with
          | None ->
              err ~code:"FSM006" ~loc:""
                "state %s sets undeclared output %S" st.sname name
          | Some o ->
              if value < 0 || (o.io_width < Bitvec.max_width && value >= 1 lsl o.io_width)
              then
                err ~code:"FSM007" ~loc:(Printf.sprintf "state %s" st.sname)
                  "value %d does not fit output %s (width %d)"
                  value name o.io_width)
        st.settings;
      List.iter
        (fun n -> err ~code:"FSM008" ~loc:"" "state %s sets output %S twice" st.sname n)
        (duplicates (List.map fst st.settings));
      List.iter
        (fun tr ->
          if find_state fsm tr.target = None then
            err ~code:"FSM009" ~loc:(Printf.sprintf "state %s" st.sname)
              "transition to unknown state %S" tr.target;
          List.iter
            (fun s ->
              if not (List.mem s input_names) then
                err ~code:"FSM010" ~loc:(Printf.sprintf "state %s" st.sname)
                  "guard references undeclared input %S" s)
            (Guard.signals tr.guard))
        st.transitions)
    fsm.states;
  (* Reachability of a done state from the initial state. *)
  (if fsm.states <> [] && find_state fsm fsm.initial <> None then
     let visited = Hashtbl.create 16 in
     let rec dfs name =
       if not (Hashtbl.mem visited name) then begin
         Hashtbl.replace visited name ();
         match find_state fsm name with
         | None -> ()
         | Some st -> List.iter (fun tr -> dfs tr.target) st.transitions
       end
     in
     dfs fsm.initial;
     let done_reachable =
       List.exists (fun s -> s.is_done && Hashtbl.mem visited s.sname) fsm.states
     in
     if done_states fsm <> [] && not done_reachable then
       err ~code:"FSM011" ~loc:""
         ~hint:"the controller would run forever; add a path to a done state"
         "no done state is reachable from %S" fsm.initial);
  List.rev !diags

exception Invalid of string list

let validate fsm =
  match check_diags fsm with
  | [] -> ()
  | ds -> raise (Invalid (List.map Diag.to_message ds))

(* ------------------------------------------------------------------ *)

let io_to_xml io =
  Xml.element "signal"
    ~attrs:
      ([ ("name", io.io_name); ("width", string_of_int io.io_width) ]
      @ if io.default <> 0 then [ ("default", string_of_int io.default) ] else [])

let io_of_xml e =
  {
    io_name = Q.attr e "name";
    io_width = Q.attr_int e "width";
    default = Q.attr_int_default e "default" 0;
  }

let state_to_xml st =
  Xml.element "state"
    ~attrs:
      ([ ("name", st.sname) ] @ if st.is_done then [ ("done", "true") ] else [])
    ~children:
      (List.map
         (fun (name, value) ->
           Xml.element "set"
             ~attrs:[ ("signal", name); ("value", string_of_int value) ])
         st.settings
      @ List.map
          (fun tr ->
            let on = Guard.to_string tr.guard in
            Xml.element "next"
              ~attrs:
                ([ ("to", tr.target) ] @ if on = "" then [] else [ ("on", on) ]))
          st.transitions)

let state_of_xml e =
  {
    sname = Q.attr e "name";
    is_done = Q.attr_bool_default e "done" false;
    settings =
      Q.children e "set"
      |> List.map (fun s -> (Q.attr s "signal", Q.attr_int s "value"));
    transitions =
      Q.children e "next"
      |> List.map (fun n ->
             {
               target = Q.attr n "to";
               guard =
                 (match Q.attr_opt n "on" with
                 | None -> Guard.True
                 | Some src -> (
                     try Guard.parse src
                     with Failure msg -> Q.fail msg));
             });
  }

let to_xml fsm =
  Xml.element "fsm"
    ~attrs:[ ("name", fsm.fsm_name); ("initial", fsm.initial) ]
    ~children:
      (Xml.element "inputs" ~children:(List.map io_to_xml fsm.inputs)
      :: Xml.element "outputs" ~children:(List.map io_to_xml fsm.outputs)
      :: List.map state_to_xml fsm.states)

let of_xml doc =
  let root = Q.as_element doc in
  if root.Xml.tag <> "fsm" then
    Q.fail (Printf.sprintf "expected <fsm>, found <%s>" root.Xml.tag);
  {
    fsm_name = Q.attr root "name";
    initial = Q.attr root "initial";
    inputs = Q.children (Q.child root "inputs") "signal" |> List.map io_of_xml;
    outputs = Q.children (Q.child root "outputs") "signal" |> List.map io_of_xml;
    states = Q.children root "state" |> List.map state_of_xml;
  }

let save path fsm = Xml.save path (to_xml fsm)
let load path = of_xml (Xmlkit.Xml_parser.parse_file path)
