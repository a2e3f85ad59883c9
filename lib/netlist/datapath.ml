module Opspec = Operators.Opspec
module Xml = Xmlkit.Xml
module Q = Xmlkit.Xml_query

type endpoint = { inst : string; port : string }

type operator = {
  id : string;
  kind : string;
  width : int;
  params : Opspec.params;
}

type source = From_op of endpoint | From_control of string

type net = {
  net_id : string;
  net_width : int;
  source : source;
  sinks : endpoint list;
}

type control = { ctl_name : string; ctl_width : int }
type status = { st_name : string; st_source : endpoint }

type t = {
  dp_name : string;
  operators : operator list;
  controls : control list;
  statuses : status list;
  nets : net list;
}

let endpoint_of_string s =
  match String.index_opt s '.' with
  | Some i when i > 0 && i < String.length s - 1 ->
      {
        inst = String.sub s 0 i;
        port = String.sub s (i + 1) (String.length s - i - 1);
      }
  | Some _ | None ->
      failwith
        (Printf.sprintf "malformed endpoint %S: expected \"inst.port\"" s)

let endpoint_to_string { inst; port } = inst ^ "." ^ port

let find_operator dp id = List.find_opt (fun op -> op.id = id) dp.operators

let operator_spec op =
  Opspec.lookup ~kind:op.kind ~width:op.width ~params:op.params

let test_aid_kinds = [ "probe"; "check"; "stop" ]

let functional_unit_count dp =
  List.length
    (List.filter (fun op -> not (List.mem op.kind test_aid_kinds)) dp.operators)

let port_of_spec spec port =
  List.find_opt (fun p -> p.Opspec.port_name = port) spec.Opspec.ports

let status_width dp st =
  match find_operator dp st.st_source.inst with
  | None ->
      failwith
        (Printf.sprintf "status %s: unknown instance %s" st.st_name
           st.st_source.inst)
  | Some op -> (
      match port_of_spec (operator_spec op) st.st_source.port with
      | Some p -> p.Opspec.port_width
      | None ->
          failwith
            (Printf.sprintf "status %s: no port %s on %s" st.st_name
               st.st_source.port st.st_source.inst))

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let duplicates names =
  let sorted = List.sort compare names in
  let rec loop acc = function
    | a :: (b :: _ as rest) -> loop (if a = b then a :: acc else acc) rest
    | [ _ ] | [] -> List.sort_uniq compare acc
  in
  loop [] sorted

(* Diagnostic codes DP001..DP012 (structural; whole-design analyses add
   DP013.. in the [Lint] library). Locations are document-relative
   ("net n3", "operator acc") — bundle-level linting prefixes the
   document name. *)
let check_diags dp =
  let diags = ref [] in
  let err ?hint ~code ~loc fmt =
    Format.kasprintf
      (fun s -> diags := Diag.error ?hint ~code ~loc "%s" s :: !diags)
      fmt
  in
  List.iter (fun id -> err ~code:"DP001" ~loc:"" "duplicate operator id %S" id)
    (duplicates (List.map (fun op -> op.id) dp.operators));
  List.iter (fun id -> err ~code:"DP002" ~loc:"" "duplicate net id %S" id)
    (duplicates (List.map (fun n -> n.net_id) dp.nets));
  List.iter (fun n -> err ~code:"DP003" ~loc:"" "duplicate control signal %S" n)
    (duplicates (List.map (fun c -> c.ctl_name) dp.controls));
  List.iter (fun n -> err ~code:"DP004" ~loc:"" "duplicate status signal %S" n)
    (duplicates (List.map (fun s -> s.st_name) dp.statuses));
  (* Resolve specs once; bad kinds/params are reported here. *)
  let specs = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match operator_spec op with
      | spec -> Hashtbl.replace specs op.id spec
      | exception Opspec.Spec_error msg ->
          err ~code:"DP005" ~loc:(Printf.sprintf "operator %s" op.id) "%s" msg)
    dp.operators;
  let resolve_port ~what { inst; port } =
    match Hashtbl.find_opt specs inst with
    | None ->
        if find_operator dp inst = None then
          err ~code:"DP006" ~loc:what "unknown instance %S" inst;
        (* If the instance exists but its spec failed, the kind error was
           already reported. *)
        None
    | Some spec -> (
        match port_of_spec spec port with
        | Some p -> Some p
        | None ->
            err ~code:"DP007" ~loc:what "instance %s has no port %S" inst port;
            None)
  in
  let control_width name =
    List.find_opt (fun c -> c.ctl_name = name) dp.controls
    |> Option.map (fun c -> c.ctl_width)
  in
  (* Nets: source direction/width, sink direction/width. *)
  List.iter
    (fun n ->
      let what = Printf.sprintf "net %s" n.net_id in
      (match n.source with
      | From_control name -> (
          match control_width name with
          | None -> err ~code:"DP008" ~loc:what "unknown control signal %S" name
          | Some w ->
              if w <> n.net_width then
                err ~code:"DP009" ~loc:what
                  "control %s width %d <> net width %d" name w n.net_width)
      | From_op ep -> (
          match resolve_port ~what ep with
          | None -> ()
          | Some p ->
              if p.Opspec.direction <> Opspec.Out then
                err ~code:"DP010" ~loc:what "source %s is not an output"
                  (endpoint_to_string ep);
              if p.Opspec.port_width <> n.net_width then
                err ~code:"DP009" ~loc:what "source %s width %d <> net width %d"
                  (endpoint_to_string ep) p.Opspec.port_width n.net_width));
      List.iter
        (fun ep ->
          match resolve_port ~what ep with
          | None -> ()
          | Some p ->
              if p.Opspec.direction <> Opspec.In then
                err ~code:"DP010" ~loc:what "sink %s is not an input"
                  (endpoint_to_string ep);
              if p.Opspec.port_width <> n.net_width then
                err ~code:"DP009" ~loc:what "sink %s width %d <> net width %d"
                  (endpoint_to_string ep) p.Opspec.port_width n.net_width)
        n.sinks)
    dp.nets;
  (* Statuses tap operator outputs. *)
  List.iter
    (fun st ->
      let what = Printf.sprintf "status %s" st.st_name in
      match resolve_port ~what st.st_source with
      | None -> ()
      | Some p ->
          if p.Opspec.direction <> Opspec.Out then
            err ~code:"DP010" ~loc:what "%s is not an output"
              (endpoint_to_string st.st_source))
    dp.statuses;
  (* Every operator input must be driven exactly once. *)
  let driven = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun ep ->
          let key = endpoint_to_string ep in
          Hashtbl.replace driven key (1 + Option.value ~default:0 (Hashtbl.find_opt driven key)))
        n.sinks)
    dp.nets;
  List.iter
    (fun op ->
      match Hashtbl.find_opt specs op.id with
      | None -> ()
      | Some spec ->
          List.iter
            (fun p ->
              if p.Opspec.direction = Opspec.In then
                let key = op.id ^ "." ^ p.Opspec.port_name in
                match Option.value ~default:0 (Hashtbl.find_opt driven key) with
                | 0 ->
                    err ~code:"DP011" ~loc:""
                      ~hint:"connect the input with a net or remove the operator"
                      "input %s is unconnected" key
                | 1 -> ()
                | n -> err ~code:"DP012" ~loc:"" "input %s has %d drivers" key n)
            spec.Opspec.ports)
    dp.operators;
  List.rev !diags

exception Invalid of string list

let validate dp =
  match check_diags dp with
  | [] -> ()
  | ds -> raise (Invalid (List.map Diag.to_message ds))

(* ------------------------------------------------------------------ *)
(* XML                                                                 *)

let reserved_attrs = [ "id"; "kind"; "width" ]

let operator_to_xml op =
  Xml.element "operator"
    ~attrs:
      ([ ("id", op.id); ("kind", op.kind); ("width", string_of_int op.width) ]
      @ op.params)

let source_to_string = function
  | From_op ep -> endpoint_to_string ep
  | From_control name -> "ctl." ^ name

let source_of_string s =
  let ep = endpoint_of_string s in
  if ep.inst = "ctl" then From_control ep.port else From_op ep

let to_xml dp =
  Xml.element "datapath"
    ~attrs:[ ("name", dp.dp_name) ]
    ~children:
      [
        Xml.element "operators" ~children:(List.map operator_to_xml dp.operators);
        Xml.element "control"
          ~children:
            (List.map
               (fun c ->
                 Xml.element "signal"
                   ~attrs:
                     [
                       ("name", c.ctl_name);
                       ("width", string_of_int c.ctl_width);
                     ])
               dp.controls);
        Xml.element "status"
          ~children:
            (List.map
               (fun s ->
                 Xml.element "signal"
                   ~attrs:
                     [
                       ("name", s.st_name);
                       ("from", endpoint_to_string s.st_source);
                     ])
               dp.statuses);
        Xml.element "nets"
          ~children:
            (List.map
               (fun n ->
                 Xml.element "net"
                   ~attrs:
                     [
                       ("id", n.net_id);
                       ("width", string_of_int n.net_width);
                       ("from", source_to_string n.source);
                     ]
                   ~children:
                     (List.map
                        (fun ep ->
                          Xml.element "sink"
                            ~attrs:[ ("to", endpoint_to_string ep) ])
                        n.sinks))
               dp.nets);
      ]

let of_xml doc =
  let root = Q.as_element doc in
  if root.Xml.tag <> "datapath" then
    Q.fail (Printf.sprintf "expected <datapath>, found <%s>" root.Xml.tag);
  let operators =
    Q.children (Q.child root "operators") "operator"
    |> List.map (fun e ->
           {
             id = Q.attr e "id";
             kind = Q.attr e "kind";
             width = Q.attr_int e "width";
             params =
               List.filter
                 (fun (k, _) -> not (List.mem k reserved_attrs))
                 e.Xml.attrs;
           })
  in
  let controls =
    match Q.child_opt root "control" with
    | None -> []
    | Some c ->
        Q.children c "signal"
        |> List.map (fun e ->
               { ctl_name = Q.attr e "name"; ctl_width = Q.attr_int e "width" })
  in
  let statuses =
    match Q.child_opt root "status" with
    | None -> []
    | Some c ->
        Q.children c "signal"
        |> List.map (fun e ->
               {
                 st_name = Q.attr e "name";
                 st_source = endpoint_of_string (Q.attr e "from");
               })
  in
  let nets =
    Q.children (Q.child root "nets") "net"
    |> List.map (fun e ->
           {
             net_id = Q.attr e "id";
             net_width = Q.attr_int e "width";
             source = source_of_string (Q.attr e "from");
             sinks =
               Q.children e "sink"
               |> List.map (fun s -> endpoint_of_string (Q.attr s "to"));
           })
  in
  { dp_name = Q.attr root "name"; operators; controls; statuses; nets }

let save path dp = Xml.save path (to_xml dp)
let load path = of_xml (Xmlkit.Xml_parser.parse_file path)
