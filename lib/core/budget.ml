type failure =
  | Timeout_cycles
  | Timeout_wall
  | Crashed of string
  | Cancelled
  | Retried_ok of int

let failure_label = function
  | Timeout_cycles -> "timeout_cycles"
  | Timeout_wall -> "timeout_wall"
  | Crashed _ -> "crashed"
  | Cancelled -> "cancelled"
  | Retried_ok _ -> "retried_ok"

type token = bool Atomic.t

let token () = Atomic.make false
let cancel tok = Atomic.set tok true
let cancel_requested tok = Atomic.get tok

let install_sigint tok =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Atomic.get tok then
           (* Second Ctrl-C: the user wants out now, not gracefully. *)
           Sys.set_signal Sys.sigint Sys.Signal_default;
         Atomic.set tok true))

type t = {
  deadline : float option;  (* absolute Unix time, not a duration *)
  tok : token option;
  slice : int;
}

let start ?wall_seconds ?token:tok ?(slice_cycles = 5000) () =
  if slice_cycles < 1 then
    invalid_arg "Budget.start: slice_cycles must be >= 1";
  let deadline =
    match wall_seconds with
    | Some s when s > 0. -> Some (Unix.gettimeofday () +. s)
    | Some _ | None -> None
  in
  { deadline; tok; slice = slice_cycles }

let check t =
  match t.tok with
  | Some tok when Atomic.get tok -> Some Cancelled
  | _ -> (
      match t.deadline with
      | Some d when Unix.gettimeofday () > d -> Some Timeout_wall
      | _ -> None)

let slice_cycles t = t.slice

let unlimited = { deadline = None; tok = None; slice = 5000 }

let saturating_mul a b =
  if a < 0 || b < 0 then invalid_arg "Budget.saturating_mul: negative factor";
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let cycle_budget ?(headroom = 1_000) ~max_cycles_factor clean_cycles =
  if clean_cycles < 0 then invalid_arg "Budget.cycle_budget: negative cycles";
  if max_cycles_factor < 1 then
    invalid_arg "Budget.cycle_budget: max_cycles_factor must be >= 1";
  let scaled = saturating_mul clean_cycles max_cycles_factor in
  if scaled > max_int - headroom then max_int else scaled + headroom

(* --- per-fault-class deadline profiles ---------------------------------- *)

let parse_deadline_profile ~valid_classes s =
  let entry part =
    match String.index_opt part '=' with
    | None ->
        invalid_arg
          (Printf.sprintf
             "deadline profile entry %S is not of the form class=seconds" part)
    | Some i ->
        let cls = String.sub part 0 i in
        let sec = String.sub part (i + 1) (String.length part - i - 1) in
        if not (List.mem cls valid_classes) then
          invalid_arg
            (Printf.sprintf
               "deadline profile names unknown fault class %S (known: %s)" cls
               (String.concat ", " valid_classes));
        (match float_of_string_opt sec with
        | Some f when f >= 0. -> (cls, f)
        | Some _ ->
            invalid_arg
              (Printf.sprintf
                 "deadline profile for class %S must be >= 0 seconds" cls)
        | None ->
            invalid_arg
              (Printf.sprintf "deadline profile entry %S: bad seconds %S" part
                 sec))
  in
  match String.split_on_char ',' s with
  | [ "" ] -> []
  | parts ->
      let profile = List.map entry parts in
      List.iter
        (fun (cls, _) ->
          if List.length (List.filter (fun (c, _) -> c = cls) profile) > 1
          then
            invalid_arg
              (Printf.sprintf "deadline profile lists class %S twice" cls))
        profile;
      profile

(* "%g" when it round-trips (every value anyone types), "%.17g" when it
   would lose bits: a rendered config must parse back to itself. *)
let seconds_to_string sec =
  let short = Printf.sprintf "%g" sec in
  if float_of_string short = sec then short else Printf.sprintf "%.17g" sec

let render_deadline_profile profile =
  String.concat ","
    (List.map
       (fun (cls, sec) -> Printf.sprintf "%s=%s" cls (seconds_to_string sec))
       profile)
