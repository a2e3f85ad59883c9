module Xml = Xmlkit.Xml
module Q = Xmlkit.Xml_query

type configuration = {
  cfg_name : string;
  datapath_ref : string;
  fsm_ref : string;
}

type transition = { src : string; dst : string }

type t = {
  rtg_name : string;
  initial : string;
  configurations : configuration list;
  transitions : transition list;
}

let singleton ~name ~datapath_ref ~fsm_ref =
  {
    rtg_name = name;
    initial = name;
    configurations = [ { cfg_name = name; datapath_ref; fsm_ref } ];
    transitions = [];
  }

let find_configuration rtg name =
  List.find_opt (fun c -> c.cfg_name = name) rtg.configurations

let successor rtg name =
  List.find_opt (fun tr -> tr.src = name) rtg.transitions
  |> Option.map (fun tr -> tr.dst)

let execution_order rtg =
  let rec follow seen name =
    if List.mem name seen then List.rev seen
    else
      match successor rtg name with
      | None -> List.rev (name :: seen)
      | Some next -> follow (name :: seen) next
  in
  follow [] rtg.initial

let configuration_count rtg = List.length rtg.configurations

let duplicates names =
  let sorted = List.sort compare names in
  let rec loop acc = function
    | a :: (b :: _ as rest) -> loop (if a = b then a :: acc else acc) rest
    | [ _ ] | [] -> List.sort_uniq compare acc
  in
  loop [] sorted

(* Diagnostic codes RTG001..RTG007. *)
let check_diags rtg =
  let diags = ref [] in
  let err ?hint ~code ~loc fmt =
    Format.kasprintf
      (fun s -> diags := Diag.error ?hint ~code ~loc "%s" s :: !diags)
      fmt
  in
  List.iter (fun n -> err ~code:"RTG001" ~loc:"" "duplicate configuration %S" n)
    (duplicates (List.map (fun c -> c.cfg_name) rtg.configurations));
  if rtg.configurations = [] then err ~code:"RTG002" ~loc:"" "no configurations";
  if find_configuration rtg rtg.initial = None then
    err ~code:"RTG003" ~loc:""
      "initial configuration %S does not exist" rtg.initial;
  List.iter
    (fun n ->
      err ~code:"RTG004" ~loc:""
        ~hint:"a configuration reconfigures to at most one successor"
        "configuration %S has several outgoing transitions" n)
    (duplicates (List.map (fun tr -> tr.src) rtg.transitions));
  List.iter
    (fun tr ->
      if find_configuration rtg tr.src = None then
        err ~code:"RTG005" ~loc:""
          "transition from unknown configuration %S" tr.src;
      if find_configuration rtg tr.dst = None then
        err ~code:"RTG005" ~loc:""
          "transition to unknown configuration %S" tr.dst)
    rtg.transitions;
  (* Follow the chain from initial: detect cycles and unreachable nodes. *)
  if !diags = [] then begin
    let order = execution_order rtg in
    (match successor rtg (List.nth order (List.length order - 1)) with
    | Some next when List.mem next order ->
        err ~code:"RTG006" ~loc:""
          ~hint:"the reconfiguration sequence would never terminate"
          "cycle: configuration %S re-entered" next
    | Some _ | None -> ());
    List.iter
      (fun c ->
        if not (List.mem c.cfg_name order) then
          err ~code:"RTG007" ~loc:""
            "configuration %S unreachable from %S" c.cfg_name rtg.initial)
      rtg.configurations
  end;
  List.rev !diags

exception Invalid of string list

let validate rtg =
  match check_diags rtg with
  | [] -> ()
  | ds -> raise (Invalid (List.map Diag.to_message ds))

let to_xml rtg =
  Xml.element "rtg"
    ~attrs:[ ("name", rtg.rtg_name); ("initial", rtg.initial) ]
    ~children:
      (List.map
         (fun c ->
           Xml.element "configuration"
             ~attrs:
               [
                 ("name", c.cfg_name);
                 ("datapath", c.datapath_ref);
                 ("fsm", c.fsm_ref);
               ])
         rtg.configurations
      @ List.map
          (fun tr ->
            Xml.element "transition"
              ~attrs:[ ("from", tr.src); ("to", tr.dst) ])
          rtg.transitions)

let of_xml doc =
  let root = Q.as_element doc in
  if root.Xml.tag <> "rtg" then
    Q.fail (Printf.sprintf "expected <rtg>, found <%s>" root.Xml.tag);
  {
    rtg_name = Q.attr root "name";
    initial = Q.attr root "initial";
    configurations =
      Q.children root "configuration"
      |> List.map (fun e ->
             {
               cfg_name = Q.attr e "name";
               datapath_ref = Q.attr e "datapath";
               fsm_ref = Q.attr e "fsm";
             });
    transitions =
      Q.children root "transition"
      |> List.map (fun e -> { src = Q.attr e "from"; dst = Q.attr e "to" });
  }

let save path rtg = Xml.save path (to_xml rtg)
let load path = of_xml (Xmlkit.Xml_parser.parse_file path)
